from __future__ import annotations

import argparse
import ast
import csv
import inspect
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hermflow import cli
from hermflow.errors import NonConvergenceError, ValidationError


def _run(capsys, argv):
    code = cli.run(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_basis_default_run(tmp_path, capsys):
    code, line = _run(capsys, ["basis", "--outdir", str(tmp_path)])
    assert code == 0
    assert line["schema"] == "hermflow/1" and line["ok"]
    assert line["count_formula_ok"] is True
    assert line["levels"] == 11
    assert line["config"]["command"] == "basis"
    assert "outdir" not in line["config"]  # plumbing stays out of the echo
    for art in line["artifacts"]:
        assert (tmp_path / art).is_file()
    doc = json.loads((tmp_path / "basis.json").read_text())
    assert doc["schema"] == "hermflow/1"
    assert [lvl["count"] for lvl in doc["levels"]][:4] == [1, 3, 6, 10]


def test_artifacts_byte_identical_across_reruns(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    c1, l1 = _run(capsys, ["eig-check", "--max-level", "3", "--outdir", str(d1)])
    c2, l2 = _run(capsys, ["eig-check", "--max-level", "3", "--outdir", str(d2)])
    assert c1 == c2 == 0
    assert l1 == l2  # outdir is plumbing, not config
    assert (d1 / "eig_check.json").read_bytes() == (d2 / "eig_check.json").read_bytes()


def test_verify_byte_identical_across_reruns(tmp_path, capsys):
    argv = ["verify", "--m", "1", "--level", "1", "--L", "16"]
    outs = []
    for run in ("a", "b"):
        code = cli.run(argv + ["--outdir", str(tmp_path / run)])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    names = json.loads(outs[0].strip().splitlines()[-1])["artifacts"]
    assert names == ["verify_m1_l1.csv", "verify_m1.json"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    (res,) = json.loads((tmp_path / "a" / "verify_m1.json").read_text())["results"]
    assert isinstance(res["max_residual"], float) and 0.0 < res["max_residual"] < 1.0


def test_verify_keeps_per_time_diagnostics(tmp_path, capsys):
    # each level's expansion residual and image-overlap estimate at every
    # kept output time, with the same bytes on a rerun
    argv = ["verify", "--m", "2", "--level", "1", "--L", "16", "--n-tau", "7"]
    docs = []
    for run in ("a", "b"):
        code = cli.run(argv + ["--outdir", str(tmp_path / run)])
        assert code == 0
        capsys.readouterr()
        docs.append((tmp_path / run / "verify_m2.json").read_bytes())
    assert docs[0] == docs[1]
    (res,) = json.loads(docs[0])["results"]
    assert len(res["residuals"]) == len(res["overlap"]) == res["n_tau"] >= 2
    assert res["max_residual"] == max(res["residuals"])
    assert all(0.0 <= x <= 2e-4 for x in res["overlap"])


def test_fresh_two_worker_verify_loads_its_modules_on_one_thread(tmp_path):
    # `--workers` is accepted and unread: a fresh process runs the verifier
    # on its main thread alone and never imports a thread pool. The CLI runs
    # as `-m` runs it, and stderr stays empty, so the package does not bind
    # `cli` (runpy would warn that it was imported before it ran)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import runpy, sys, threading\n"
        "try:\n"
        "    runpy.run_module('hermflow.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, 'concurrent.futures' in sys.modules, threading.active_count())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "verify", "--m", "2", "--level", "1", "--workers", "2",
         "--outdir", str(tmp_path)],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == b""
    summary, probe = proc.stdout.decode().strip().splitlines()[-2:]
    assert probe == "0 False 1"
    names = json.loads(summary)["artifacts"]
    assert names == ["verify_m2_l1.csv", "verify_m2.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


@pytest.mark.parametrize("n_tau", [0, 1, 2])
def test_verify_too_few_output_times_exits_2(tmp_path, capsys, n_tau):
    # the rate fit needs three samples: refused up front, naming n_tau,
    # before any lattice array is built (0 was refused as a box too small,
    # 1 and 2 ran the whole verifier first)
    from hermflow import grid

    grid._CACHE.clear()
    code, line = _run(capsys, ["verify", "--n-tau", str(n_tau), "--outdir", str(tmp_path)])
    assert code == 2 and line["error"] == "validation"
    assert line["message"] == f"n_tau must be at least 3, got {n_tau}"
    assert grid._CACHE == {}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, names",
    [
        (["verify", "--L", "1e300"], ("L=",)),
        (["d-tensor", "--L", "1e300", "--n", "16"], ("L=", "n=")),
        (["d-tensor", "--L", "1e-300"], ("L=", "n=")),
    ],
    ids=["verify-huge", "d-tensor-huge", "d-tensor-tiny"],
)
def test_out_of_range_box_exits_2(tmp_path, capfd, argv, names):
    # refused before any lattice work: no numpy overflow warning is raised,
    # and stderr (captured at the file descriptor) holds one message line
    # naming the box (and the grid of d-tensor)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run(argv + ["--outdir", str(tmp_path)])
    assert [str(w.message) for w in caught] == []
    out, err = capfd.readouterr()
    line = json.loads(out.strip().splitlines()[-1])
    assert code == 2 and line["error"] == "validation"
    assert all(name in line["message"] for name in names)
    assert err.splitlines() == [f"hermflow {argv[0]}: {line['message']}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["d-tensor", "--K", "2"],
        ["evolve", "--model", "nse", "--K", "2", "--data", "demo:small", "--tau", "3", "--check-linear"],
    ],
    ids=["d-tensor-K2", "evolve-criterion-11"],
)
def test_tensor_commands_byte_identical_across_reruns(tmp_path, capsys, argv):
    outs = []
    for run in ("a", "b"):
        code = cli.run(argv + ["--outdir", str(tmp_path / run)])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    line = json.loads(outs[0].strip().splitlines()[-1])
    if argv[0] == "evolve":
        integ = line["integrator"]
        assert integ["nfev"] == 2 + 6 * (integ["steps"] + integ["rejected"]) > 2
    names = line["artifacts"]
    assert names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize(
    "argv, value",
    [
        (["kernel", "--r-max", "1e15", "--dr", "1e-3"], "r_max=1000000000000000.0 in steps dr=0.001"),
        (["wkbj", "--fit", "--r-max", "1e15", "--dr", "1e-3"], "r_max=1000000000000000.0 in steps dr=0.001"),
        (["evolve", "--steps", "100000000000000000"], "steps=100000000000000000"),
        (["nodal", "--steps", "100000000000000000"], "steps=100000000000000000"),
        (["verify", "--n-tau", "100000000000000000"], "n_tau=100000000000000000"),
        # a count beyond the float range
        (["evolve", "--steps", "1" + "0" * 400], "steps=1" + "0" * 400),
    ],
    ids=["kernel", "wkbj", "evolve", "nodal", "verify", "evolve-1e400"],
)
def test_one_dimensional_grid_larger_than_memory_exits_2(tmp_path, capfd, argv, value):
    # radii and output times are sized like lattices, before any is built:
    # these need exabytes, one message line names the value, nothing is written
    code = cli.run(argv + ["--outdir", str(tmp_path)])
    out, err = capfd.readouterr()
    line = json.loads(out.strip().splitlines()[-1])
    assert code == 2 and line["error"] == "validation"
    assert value in line["message"] and "GiB" in line["message"]
    assert err.splitlines() == [f"hermflow {argv[0]}: {line['message']}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["kernel", "--r-max", "1e5", "--dr", "1"], ["wkbj", "--fit", "--r-max", "1e5", "--dr", "1"]],
    ids=["kernel", "wkbj"],
)
def test_kernel_table_beyond_the_work_bound_exits_2(tmp_path, capfd, monkeypatch, argv):
    # 1e5 radii fit in memory, but over 3.3e6 Gauss nodes they ask for about
    # 3.3e11 sine evaluations: refused before any Gauss rule is built (the
    # kernel resolves the rule at call time)
    import numpy.polynomial.legendre

    def unreachable(order):
        raise AssertionError("the sine sum started")

    monkeypatch.setattr(numpy.polynomial.legendre, "leggauss", unreachable)
    code = cli.run(argv + ["--outdir", str(tmp_path)])
    out, err = capfd.readouterr()
    line = json.loads(out.strip().splitlines()[-1])
    assert code == 2 and line["error"] == "validation"
    for part in ("100000 radii", "3315920 Gauss nodes", f"bound of {2**30}"):
        assert part in line["message"]
    assert err.splitlines() == [f"hermflow {argv[0]}: {line['message']}"]
    assert list(tmp_path.iterdir()) == []


def test_verify_truncated_below_three_times_exits_2(tmp_path, capsys):
    # at L=16 periodic images reach the pairing region after the second of
    # three output times: refused before any lattice array is built, naming
    # L, the times kept and n_tau, where the rate fit used to refuse a
    # two-sample trajectory after the whole run; four times keep three
    from hermflow import grid

    grid._CACHE.clear()
    argv = ["verify", "--L", "16", "--outdir", str(tmp_path)]
    code, line = _run(capsys, argv + ["--n-tau", "3"])
    assert code == 2 and line["error"] == "validation"
    assert line["message"] == (
        "box half-width L=16 is too small: periodic images keep clear of the "
        "pairing region at only 2 of n_tau=3 output times, and the rate fit needs 3"
    )
    assert grid._CACHE == {}
    assert list(tmp_path.iterdir()) == []
    code, line = _run(capsys, argv + ["--n-tau", "4"])
    assert code == 0 and line["ok"] and line["truncated"]


@pytest.mark.parametrize("m, L", [(1, "0.5"), (2, "3")])
def test_verify_box_too_small_exits_2(tmp_path, capsys, m, L):
    argv = ["verify", "--m", str(m), "--L", L, "--outdir", str(tmp_path)]
    code, line = _run(capsys, argv)
    assert code == 2 and line["error"] == "validation"
    assert "too small" in line["message"]


def test_verify_takes_no_grid_size(tmp_path, capsys):
    # the verifier sums over the whole lattice pi Z^3 / L, so it has no n:
    # the flag is unknown (exit 64), and so is the key in a config file
    # (exit 2, naming it)
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--n", "64", "--outdir", str(tmp_path)])
    assert exc.value.code == 64
    capsys.readouterr()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 64}))
    code, line = _run(capsys, ["verify", "--config", str(path), "--outdir", str(tmp_path)])
    assert code == 2 and line["error"] == "validation" and "n" in line["message"]
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]


def test_the_cli_has_72_settings():
    assert sum(len(cli._PARAMS[c]) for c in cli._COMMANDS) == 72


def _parities(cube: np.ndarray) -> set:
    """The parities (d mod 2 per variable) of the nonzero entries of a
    coefficient cube."""
    return {tuple(int(x) % 2 for x in d) for d in np.argwhere(cube != 0.0)}


def test_verify_symmetry_zero_coefficients_are_exactly_zero(tmp_path, capsys):
    # a dual whose components share no parity with the data's pairs with
    # them through odd lattice moments only, which cancel exactly between
    # k and -k: its coefficient reads 0.0 at every output time
    from hermflow import grid, solenoidal

    code, line = _run(capsys, ["verify", "--m", "1", "--level", "1", "--level", "2", "--L", "16",
                               "--outdir", str(tmp_path)])
    assert code == 0
    for k, want in ((1, 2), (2, 6)):
        basis = solenoidal.level_basis(1, k)
        (data,) = grid.spectrum_cubes([solenoidal.fixture(1, k)[0]], 1)
        duals = grid.dual_cubes(basis.blocks)
        zero = [
            f"l{lab[0]}:{lab[1]}" for lab, W in zip(basis.labels, duals)
            if all(not _parities(X) & _parities(Wc) for X, Wc in zip(data, W))
        ]
        assert len(zero) == want, zero
        with open(tmp_path / f"verify_m1_l{k}.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) >= 3
        assert all(float(row[lab]) == 0.0 for row in rows for lab in zero)


@pytest.mark.parametrize(
    "argv, subject",
    [
        (["d-tensor"], "n=128"),
        (["verify", "--m", "2", "--L", "1e4"], "L=10000.0"),
        (["verify", "--m", "1", "--L", "1e4"], "L=10000.0"),
        (["nodal", "--cell", "0.001"], "n=4001"),
    ],
    ids=["d-tensor", "verify", "verify-m1", "nodal"],
)
def test_grid_larger_than_memory_exits_2(tmp_path, capsys, monkeypatch, argv, subject):
    # a host with 1 MiB of memory: the default tensor grid and a fine nodal
    # grid are refused before any lattice array exists, and nothing is
    # written. The verifier's tables grow with the box, not with a grid:
    # at L=1e4 its live prefix is about 61000 indices per axis at m=1 and
    # its live box about 14000 per axis at m=2, and the message names L
    from hermflow import errors

    monkeypatch.setattr(errors, "_physical_memory", lambda: 2**20)
    code, line = _run(capsys, argv + ["--outdir", str(tmp_path)])
    assert code == 2 and line["error"] == "validation"
    assert subject in line["message"] and "GiB" in line["message"]
    assert list(tmp_path.iterdir()) == []


def test_evolve_integrator_failing_first_step_exits_3(tmp_path, capfd):
    # the quadratic term of 1e200 data overflows, so no step completes; the
    # overflow raises no warning, so stderr holds the one message line
    argv = ["evolve", "--model", "nse", "--K", "1", "--data", "l1:0=1e200"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(argv + ["--outdir", str(tmp_path)])
    out, err = capfd.readouterr()
    line = json.loads(out.strip().splitlines()[-1])
    assert code == 3 and line["error"] == "non-convergence"
    assert "before completing a step" in line["message"]
    assert err.splitlines() == [f"hermflow evolve: {line['message']}"]
    assert list(tmp_path.iterdir()) == []


def test_evolve_nan_starting_derivative_exits_3(tmp_path, capsys):
    # couplings of opposite sign overflow to inf - inf: the starting step is
    # NaN, which fails like a step below 10 ulps instead of looping forever
    argv = ["evolve", "--model", "nse", "--K", "1", "--data",
            "l0:0=1e200,l1:0=1e200,l1:1=1e200,l1:2=-1e200", "--outdir", str(tmp_path)]
    code, line = _run(capsys, argv)
    assert code == 3 and "before completing a step" in line["message"]


def test_evolve_refuses_rtol_below_its_floor(tmp_path, capsys):
    # below 100 eps the step control cannot resolve the tolerance; the floor
    # itself is accepted and echoed as given
    argv = ["evolve", "--model", "nse", "--K", "1", "--data", "l1:0=0.1", "--tau", "1"]
    code, line = _run(capsys, argv + ["--rtol", "1e-20", "--outdir", str(tmp_path / "a")])
    assert code == 2 and line["error"] == "validation"
    assert "2.220446049250313e-14" in line["message"] and "1e-20" in line["message"]
    assert not (tmp_path / "a" / "trajectory.csv").exists()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, line = _run(
            capsys, argv + ["--rtol", "2.220446049250313e-14", "--outdir", str(tmp_path / "b")]
        )
    assert code == 0 and line["config"]["rtol"] == 2.220446049250313e-14


def _blow_up_tensor(path) -> None:
    # the K=1 system with one coupling, c0' = -c0/2 + 1e3 c0^2, on the
    # default grid: from c0 = 0.1 it blows up near tau = 0.01
    from hermflow.grid import GridSpec
    from hermflow.solenoidal import composite_basis

    spec = GridSpec(8.0, 64)
    tensor = cli._zero_tensor(composite_basis(1, 1), 1, spec)
    tensor.values[0, 0, 0] = 1e3
    tensor.refined = spec.refined().to_json_dict()
    path.write_text(json.dumps(tensor.to_json_dict()))


def test_evolve_stopped_by_the_step_bound_exits_3(tmp_path, capsys, monkeypatch):
    # the blow-up run takes 809 steps; bounded at 5 it stops with fewer
    # than 3 output times: exit 3 names the bound and tau_reached, and
    # nothing is written
    from hermflow import dynamics

    tensor = tmp_path / "blow-up.json"
    _blow_up_tensor(tensor)
    outdir = tmp_path / "out"
    monkeypatch.setattr(dynamics, "_DP_MAX_STEPS", 5)
    argv = ["evolve", "--model", "nse", "--K", "1", "--data", "l0:0=0.1", "--tensor",
            str(tensor), "--outdir", str(outdir)]
    code, line = _run(capsys, argv)
    assert code == 3 and line["error"] == "non-convergence"
    assert "tau_reached=" in line["message"]
    assert "the step bound of 5 attempted steps was reached" in line["message"]
    assert list(outdir.iterdir()) == []


def test_truncated_zero_coupling_run_compares_the_times_reached(tmp_path, capsys, monkeypatch):
    # bounded at 5 steps the run stops early with enough output times for
    # the resonance window: it keeps its artifacts, and stokes_dev compares
    # it with the exact flow at the times it reached
    from hermflow import dynamics

    monkeypatch.setattr(dynamics, "_DP_MAX_STEPS", 5)
    argv = ["evolve", "--model", "nse", "--K", "1", "--data", "l1:0=0.1", "--check-linear"]
    code, line = _run(capsys, argv + ["--outdir", str(tmp_path)])
    assert code == 0 and line["truncated"] is True
    assert line["stokes_dev"] <= 1e-9


def test_evolve_truncated_before_the_window_exits_3(tmp_path, capfd):
    # the integrator stops at tau ~ 0.01, which leaves one of the 41 output
    # times: the run did not converge, the resonance window is not at fault
    tensor = tmp_path / "blow-up.json"
    _blow_up_tensor(tensor)
    outdir = tmp_path / "out"
    argv = ["evolve", "--model", "nse", "--K", "1", "--data", "l0:0=0.1", "--tensor",
            str(tensor), "--check-linear", "--outdir", str(outdir)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(argv)
    out, err = capfd.readouterr()
    line = json.loads(out.strip().splitlines()[-1])
    assert code == 3 and line["error"] == "non-convergence"
    assert "tau_reached=0.0" in line["message"] and "of 3.0" in line["message"]
    assert "Required step size is less than spacing between numbers." in line["message"]
    assert err.splitlines() == [f"hermflow evolve: {line['message']}"]
    assert list(outdir.iterdir()) == []


def _fresh_run(tmp_path, argvs):
    """Run each argv through `cli.run` in one fresh interpreter; return the
    exit codes and the names in `sys.modules` afterwards."""
    script = (
        "import json, sys\n"
        "from hermflow import cli\n"
        "codes = [cli.run(a + ['--outdir', sys.argv[1]]) for a in json.loads(sys.argv[2])]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_commands_import_no_scipy(tmp_path):
    # scipy's import costs more than these runs compute, and no command
    # needs it
    argvs = [
        ["kernel"],
        ["wkbj", "--m", "2", "--N", "3", "--fit"],
        ["evolve", "--model", "nse", "--K", "1", "--data", "l1:0=0.1", "--tau", "1"],
        ["evolve", "--model", "nse", "--K", "1", "--data", "l1:0=0.1", "--tau", "1",
         "--check-linear"],
        ["d-tensor", "--n", "32"],
        ["verify", "--L", "12", "--n-tau", "7"],
        ["classify", "--terms", '[{"x": [2, 0, 0], "t": 0, "c": 1}]'],
        ["basis", "--max-level", "3"],
        ["nodal"],
        ["nodal", "--cell", "0.1"],
    ]
    codes, modules = _fresh_run(tmp_path, argvs)
    assert codes == [0] * len(argvs)
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_exact_commands_never_run_numpy(tmp_path):
    # these commands compute with Fractions only; numpy is bound lazily, so
    # it sits in sys.modules but its code (numpy._core, numpy.core in 1.x)
    # never runs
    argvs = [
        ["basis", "--max-level", "3"],
        ["eig-check"],
        ["biortho"],
        ["solenoidal"],
        ["classify", "--suite", "synthetic"],
    ]
    codes, modules = _fresh_run(tmp_path, argvs)
    assert codes == [0] * len(argvs)
    assert "numpy._core" not in modules and "numpy.core" not in modules


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2, reason="numpy 1.x imports numpy.polynomial eagerly"
)
def test_numeric_commands_load_no_numpy_polynomial(tmp_path):
    # only the kernel table's Gauss rule reads numpy.polynomial, at call time
    argvs = [
        ["nodal"],
        ["verify", "--L", "12", "--n-tau", "7"],
        ["d-tensor", "--n", "32"],
        ["evolve", "--model", "nse", "--K", "1", "--data", "l1:0=0.1", "--tau", "1"],
    ]
    codes, modules = _fresh_run(tmp_path, argvs)
    assert codes == [0] * len(argvs)
    assert "numpy._core" in modules
    assert [m for m in modules if m.startswith("numpy.polynomial")] == []


def test_json_default_converts_numpy_types_only():
    from fractions import Fraction

    assert cli._json_default(Fraction(-3, 4)) == {"num": -3, "den": 4}
    for x, want in [(np.int64(7), 7), (np.bool_(True), True), (np.arange(3), [0, 1, 2])]:
        out = cli._json_default(x)
        assert out == want and type(out) is type(want)
    for x in (object(), {1, 2}, 1j, np.complex128(1j), np.float16(0.5)):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._json_default(x)


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["d-tensor", "--K", "2"], 31),
        (["evolve", "--model", "nse", "--K", "2", "--data", "demo:small", "--tau", "3", "--check-linear"], 31),
        (["nodal"], 67),
        (["verify", "--m", "2", "--level", "1"], 9),
    ],
    ids=["d-tensor-K2", "evolve-criterion-11", "nodal", "verify-m2-l1"],
)
def test_each_basis_level_is_validated_once(tmp_path, capsys, monkeypatch, argv, calls):
    # one level_membership call per nonzero field component of the basis the
    # command works on: the basis is built once and its duals read from it
    from hermflow import solenoidal

    counted = []
    level_membership = solenoidal.level_membership

    def count(*args, **kwargs):
        counted.append(1)
        return level_membership(*args, **kwargs)

    monkeypatch.setattr(solenoidal, "level_membership", count)
    code, _ = _run(capsys, argv + ["--outdir", str(tmp_path)])
    assert code == 0
    assert len(counted) == calls


def test_projector_diagnostic_working_set():
    # one sweep of row blocks: the octants of the weight and of 1/|eta|^2
    # and about ten row blocks, a quarter of the lattice each at n=64, each
    # evaluated and indexed afresh (measured 3.93 and 3.95 arrays of n^3
    # for m = 1 and 2); the first call fills the exact transform-polynomial
    # cache, and the grid cache is cleared so that its lattice arrays count
    from hermflow import grid

    spec = grid.GridSpec(8.0, 64)
    for m in (1, 2):
        cli._projector_diagnostics(spec, m, 0)
        grid._CACHE.clear()
        tracemalloc.start()
        try:
            cli._projector_diagnostics(spec, m, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * spec.n**3, m


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_level": 5}))
    code, line = _run(
        capsys, ["basis", "--config", str(cfg), "--outdir", str(tmp_path)]
    )
    assert code == 0 and line["config"]["max_level"] == 5
    code, line = _run(
        capsys,
        [
            "basis",
            "--config",
            str(cfg),
            "--max-level",
            "7",
            "--outdir",
            str(tmp_path),
        ],
    )
    assert code == 0 and line["config"]["max_level"] == 7


def test_config_file_rejects_unknown_keys_and_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}))
    code, line = _run(capsys, ["basis", "--config", str(bad), "--outdir", str(tmp_path)])
    assert code == 2 and line["error"] == "validation"
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    code, line = _run(
        capsys, ["basis", "--config", str(notjson), "--outdir", str(tmp_path)]
    )
    assert code == 2
    code, line = _run(
        capsys, ["basis", "--config", str(tmp_path / "missing.json"), "--outdir", str(tmp_path)]
    )
    assert code == 2


def test_env_outdir_and_flag_precedence(tmp_path, capsys, monkeypatch):
    envdir = tmp_path / "fromenv"
    monkeypatch.setenv("HERMFLOW_OUTDIR", str(envdir))
    code, line = _run(capsys, ["wkbj", "--m", "2"])
    assert code == 0
    assert (envdir / "wkbj.json").is_file()
    flagdir = tmp_path / "fromflag"
    code, line = _run(capsys, ["wkbj", "--m", "2", "--outdir", str(flagdir)])
    assert code == 0
    assert (flagdir / "wkbj.json").is_file()


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["basis", "--no-such-flag"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        cli.run([])
    assert exc.value.code == 64
    # removed flags are unknown: the projector check always runs, d-tensor
    # always refines, only the commands with random data take a seed, and
    # classify samples nothing
    for argv in (
        ["d-tensor", "--no-check-projector"],
        ["d-tensor", "--no-refine"],
        ["d-tensor", "--flag-tol", "1e-3"],
        ["evolve", "--zero-tensor"],
        ["basis", "--seed", "1"],
        ["classify", "--delta", "0.125"],
        ["classify", "--threshold", "1e-7"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 64, argv


def test_bad_data_descriptor_exits_2(tmp_path, capsys):
    # `fixture:k:i` and `kernel:k:i` were spellings of `lk:i=1`
    for desc in ("garbage:oops", "fixture:1:0", "kernel:1:0"):
        code, line = _run(
            capsys,
            ["evolve", "--data", desc, "--outdir", str(tmp_path)],
        )
        assert code == 2
        assert line["error"] == "validation" and not line["ok"]


@pytest.mark.parametrize(
    "argv, value",
    [
        (["basis", "--max-level", "-1"], "max_level must be >= 0, got -1"),
        (["eig-check", "--max-level", "-1"], "max_level must be >= 0, got -1"),
        (["biortho", "--max-level", "-1"], "max_level must be >= 0, got -1"),
        (["solenoidal", "--m", "0"], "m=0"),
        (["solenoidal", "--m", "3"], "m=3"),
        (["solenoidal", "--m", "-1"], "m=-1"),
        (["solenoidal", "--m", "1", "--m", "5"], "m=5"),
    ],
)
def test_checks_with_nothing_to_check_exit_2(tmp_path, capsys, argv, value):
    # a negative max_level or an uncatalogued m used to pass on no data
    code, line = _run(capsys, argv + ["--outdir", str(tmp_path)])
    assert code == 2 and line["error"] == "validation"
    assert value in line["message"]
    assert list(tmp_path.iterdir()) == []


def test_kernel_unreachable_tol_exits_3(tmp_path, capsys):
    code, line = _run(
        capsys,
        [
            "kernel",
            "--tol",
            "1e-30",
            "--r-max",
            "4",
            "--dr",
            "0.5",
            "--outdir",
            str(tmp_path),
        ],
    )
    assert code == 3
    assert line["error"] == "non-convergence"
    assert line["achieved"] > 0.0


@pytest.mark.parametrize(
    "exc, code, line",
    [
        (
            ValidationError("bad level"),
            2,
            '{"command": "basis", "error": "validation", "message": "bad level", '
            '"ok": false, "schema": "hermflow/1"}',
        ),
        (
            NonConvergenceError("quadrature stalled", achieved=0.25),
            3,
            '{"achieved": 0.25, "command": "basis", "error": "non-convergence", '
            '"message": "quadrature stalled", "ok": false, "schema": "hermflow/1"}',
        ),
        (
            OSError("no such file"),
            2,
            '{"command": "basis", "error": "validation", "message": "no such file", '
            '"ok": false, "schema": "hermflow/1"}',
        ),
    ],
)
def test_failure_table_pins_summary_and_stderr(tmp_path, capsys, monkeypatch, exc, code, line):
    def fail(cfg):
        raise exc

    help_text, params, _ = cli._COMMANDS["basis"]
    monkeypatch.setitem(cli._COMMANDS, "basis", (help_text, params, fail))
    assert cli.run(["basis", "--outdir", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    assert out == line + "\n"
    assert err == f"hermflow basis: {exc}\n"


def test_closed_stdout_exits_2_with_one_line(tmp_path):
    # a reader that went away before the summary line: exit 2, one stderr
    # line and no traceback; the artifact written before the line stays
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hermflow.cli", "eig-check", "--outdir", str(tmp_path)],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(w)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert [f.name for f in tmp_path.iterdir()] == ["eig_check.json"]


def _failed(capfd, argv, outdir):
    """Run argv into outdir; return its exit code and summary line, after
    checking that stderr holds the one message line and outdir is empty."""
    code = cli.run(argv + ["--outdir", str(outdir)])
    out, err = capfd.readouterr()
    line = json.loads(out.strip().splitlines()[-1])
    assert err.splitlines() == [f"hermflow {argv[0]}: {line['message']}"]
    assert list(outdir.iterdir()) == []
    return code, line


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--m", "1", "--level", "1", "--level", "5", "--L", "16"],
        ["classify", "--suite", "synthetic", "--max-order", "2"],
        ["nodal", "--taus", "0,1,2000", "--cell", "0.2"],
    ],
    ids=["verify", "classify", "nodal"],
)
def test_failing_run_leaves_no_artifact(tmp_path, capfd, argv):
    # each fails after work that produced files: a level beyond the
    # catalogue, a suite that disagrees at max_order 2, and data that
    # underflow to zero by tau 2000
    code, line = _failed(capfd, argv, tmp_path / "out")
    assert code == 2 and line["error"] == "validation"


@pytest.mark.parametrize(
    "argv, cfg, setting",
    [
        (["evolve", "--check-linear"], {}, "check_linear is read only with model nse"),
        (["evolve", "--tensor", "/nonexistent.json"], {}, "tensor is read only with model nse"),
        (["evolve", "--model", "burnett", "--rtol", "0"], {}, "rtol is read only with model nse"),
        (["evolve"], {"L": 4.0}, "L is read only with model nse"),
        (["evolve"], {"model": "burnett", "n": 32}, "n is read only with model nse"),
        (["evolve", "--seed", "1"], {}, "seed is read only with data demo:small"),
        (["evolve", "--model", "nse", "--K", "1", "--data", "l1:0=1"], {"seed": 2},
         "seed is read only with data demo:small"),
        (["nodal", "--seed", "1"], {}, "seed is read only with data demo:small"),
        (["solenoidal", "--kind", "kernel", "--K", "7"], {}, "K is read only with kind composite"),
        (["solenoidal", "--level", "5"], {}, "level is read only with kind kernel"),
        (["solenoidal", "--kind", "composite"], {"level": 2}, "level is read only with kind kernel"),
        (["wkbj", "--r-max", "99"], {}, "r_max is read only with fit True"),
        (["wkbj"], {"dr": 0.5}, "dr is read only with fit True"),
        (["classify", "--suite", "synthetic", "--terms", '[{"x":[1,0,0],"c":1}]'], {},
         "give one of suite, terms and terms_file, not suite and terms"),
        (["classify", "--terms", "[]"], {"terms_file": "terms.json"},
         "give one of suite, terms and terms_file, not terms and terms_file"),
    ],
)
def test_settings_a_run_would_not_read_exit_2(tmp_path, capfd, argv, cfg, setting):
    # a check or grid that never ran is not echoed as run: the setting is
    # refused, by flag or config key, before any work
    if cfg:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = argv + ["--config", str(path)]
    outdir = tmp_path / "out"
    outdir.mkdir()
    code, line = _failed(capfd, argv, outdir)
    assert code == 2 and line["error"] == "validation"
    assert line["message"].startswith(setting)


def test_settings_at_their_defaults_keep_the_default_echo(tmp_path, capsys):
    # given at its default, a setting the run does not read changes nothing
    code, plain = _run(capsys, ["evolve", "--outdir", str(tmp_path / "a")])
    assert code == 0
    argv = ["evolve", "--L", "8", "--n", "64", "--rtol", "1e-9", "--seed", "0"]
    code, given = _run(capsys, argv + ["--outdir", str(tmp_path / "b")])
    assert code == 0 and given == plain
    for name in plain["artifacts"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    code, line = _run(capsys, ["evolve", "--data", "demo:small", "--K", "1", "--seed", "3",
                               "--outdir", str(tmp_path / "c")])
    assert code == 0 and line["config"]["seed"] == 3


def test_verify_failing_on_a_later_level_leaves_no_artifact(tmp_path, capfd, monkeypatch):
    from hermflow import dynamics

    calls = []
    verify = dynamics.semigroup_verify

    def second_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NonConvergenceError("the second level stalled", achieved=0.5)
        return verify(*args, **kwargs)

    monkeypatch.setattr(dynamics, "semigroup_verify", second_fails)
    argv = ["verify", "--m", "1", "--level", "1", "--level", "2", "--L", "16"]
    code, line = _failed(capfd, argv, tmp_path)
    assert code == 3 and line["achieved"] == 0.5
    assert len(calls) == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--level", "1", "--level", "5"], "no catalog basis for m=1, k=5"),
        (["--level", "2", "--level", "1", "--field-index", "5"], "field index 5 outside fixture level 1"),
    ],
    ids=["level", "field-index"],
)
def test_verify_checks_every_level_before_computing_any(tmp_path, capfd, monkeypatch, flags, message):
    from hermflow import dynamics

    def unreachable(*args, **kwargs):
        raise AssertionError("a level was computed")

    monkeypatch.setattr(dynamics, "semigroup_verify", unreachable)
    code, line = _failed(capfd, ["verify", "--m", "1"] + flags, tmp_path)
    assert code == 2 and line["message"].startswith(message)


def test_classify_zero_denominator_coefficient_exits_2(tmp_path, capfd):
    terms = '[{"x":[1,0,0],"c":"1/0"},{"x":[0,0,0],"t":1,"c":1}]'
    code, line = _failed(capfd, ["classify", "--terms", terms], tmp_path)
    assert code == 2 and line["error"] == "validation"
    assert "'c': '1/0'" in line["message"] and "zero denominator" in line["message"]


@pytest.mark.parametrize(
    "coefficient, what",
    [
        ("1e100000000", "decimal exponent exceeds 1000"),
        ("-2.5E-1_000_000", "decimal exponent exceeds 1000"),
        ("1" * 100_000, "100000 characters"),
    ],
    ids=["exponent", "negative-exponent", "digits"],
)
def test_classify_coefficient_far_past_float_range_exits_2(tmp_path, capfd, coefficient, what):
    # refused before any Fraction is built: parsing "1e100000000" as a
    # Fraction would take minutes
    terms = json.dumps([{"x": [1, 0, 0], "c": coefficient}, {"x": [0, 0, 0], "t": 1, "c": 1}])
    start = time.perf_counter()
    code, line = _failed(capfd, ["classify", "--terms", terms], tmp_path)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and line["error"] == "validation"
    assert what in line["message"]


def test_nodal_names_the_time_its_coefficients_underflow_at(tmp_path, capfd):
    code, line = _failed(capfd, ["nodal", "--taus", "0,1,2000", "--cell", "0.2"], tmp_path)
    assert code == 2 and line["error"] == "validation"
    assert line["message"].startswith("at taus entry 2000.0 the diagonal flow has underflowed")
    assert "every coefficient to 0.0" in line["message"]


def test_nodal_grid_whose_side_overflows_exits_2(tmp_path, capfd):
    # 2R/cell overflows to inf: refused by the memory check, not by an
    # OverflowError from sizing the grid (exit 1 with a traceback)
    code, line = _failed(capfd, ["nodal", "--R", "1e308", "--cell", "1e-300"], tmp_path)
    assert code == 2 and line["error"] == "validation"
    assert "n=inf" in line["message"] and "GiB" in line["message"]


def test_wkbj_fit_beyond_the_iteration_cap_exits_3(tmp_path, capfd, monkeypatch):
    from hermflow import kernel

    monkeypatch.setattr(kernel, "_LM_MAX_ITER", 3)
    code, line = _failed(capfd, ["wkbj", "--m", "2", "--N", "3", "--fit"], tmp_path)
    assert code == 3 and line["error"] == "non-convergence"
    assert line["message"].startswith("envelope least squares did not converge in 3 steps")
    assert line["achieved"] > 0.0


def _term(x, t, c=1):
    return {"x": x, "t": t, "c": c}


@pytest.mark.parametrize(
    "terms, flags, want",
    [
        # every order above max_order counts, at any degree
        ([_term([13, 0, 0], 0), _term([0, 0, 0], 1)], [], ("order-exceeds-bound", None, None, None)),
        ([_term([2, 0, 0], 0), _term([0, 0, 0], 13)], [], ("temporal-degenerate", 2, None, None)),
        # the lowest order decides, however small its coefficient
        ([_term([2, 0, 0], 0), _term([0, 0, 0], 20), _term([0, 0, 0], 3, "1e-12")], [],
         ("classified", 2, 3, {"num": 3, "den": 2})),
        # a mixed term off the axes is an order too
        ([_term([1, 1, 0], 0)], [], ("temporal-degenerate", 2, None, None)),
        # a coefficient beyond the float range is exact
        ([_term([1, 0, 0], 0, "1e400"), _term([0, 0, 0], 1)], [], ("classified", 1, 1, {"num": 1, "den": 1})),
        ([_term([1000000, 0, 0], 0), _term([0, 0, 0], 1)], [], ("order-exceeds-bound", None, None, None)),
        # max_order has no cap: it bounds nothing but the two statuses
        ([_term([20, 0, 0], 0), _term([0, 0, 0], 1)], ["--max-order", "1000000000"],
         ("classified", 20, 1, {"num": 1, "den": 20})),
    ],
    ids=["x13", "t13", "small-t3", "xy", "c-1e400", "x1000000", "max-order-1e9"],
)
def test_classify_reads_the_orders_off_the_terms(tmp_path, capsys, terms, flags, want):
    start = time.perf_counter()
    argv = ["classify", "--terms", json.dumps(terms), *flags, "--outdir", str(tmp_path)]
    code, line = _run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and (line["status"], line["M"], line["K"], line["gamma"]) == want
    doc = json.loads((tmp_path / "zerotype.json").read_text())
    assert (doc["status"], doc["M"], doc["K"], doc["gamma"]) == want


def test_handlers_compute_and_run_alone_writes():
    # a handler takes the resolved config alone and returns its artifacts;
    # cli.py opens a file for writing in one place, the writer in `run`
    for command, (_, _, handler) in cli._COMMANDS.items():
        assert len(inspect.signature(handler).parameters) == 1, command

    def writes(call) -> bool:
        modes = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "mode")]
        return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes)

    calls = [
        node for node in ast.walk(ast.parse(inspect.getsource(cli)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"
    ]
    assert len([c for c in calls if writes(c)]) == 1


def test_wkbj_reports_closed_form_constants(tmp_path, capsys):
    code, line = _run(capsys, ["wkbj", "--m", "2", "--outdir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "wkbj.json").read_text())
    assert abs(doc["d0"] - 3.0 * 2.0 ** (-11.0 / 3.0)) <= 1e-12
    assert doc["alpha"] == {"num": 4, "den": 3}


def test_eig_check_and_biortho_pass(tmp_path, capsys):
    code, line = _run(
        capsys, ["eig-check", "--m", "1", "--max-level", "3", "--outdir", str(tmp_path)]
    )
    assert code == 0 and line["all_pass"]
    code, line = _run(
        capsys, ["biortho", "--m", "1", "--max-level", "2", "--outdir", str(tmp_path)]
    )
    assert code == 0 and line["all_pass"]


def test_solenoidal_fixture_counts(tmp_path, capsys):
    code, line = _run(capsys, ["solenoidal", "--outdir", str(tmp_path)])
    assert code == 0
    assert line["ok"]


@pytest.mark.parametrize(
    "argv",
    [["solenoidal", "--N", "2"], ["solenoidal", "--kind", "composite", "--K", "1", "--N", "2"]],
    ids=["fixture", "composite"],
)
def test_solenoidal_builds_bases_in_the_echoed_dimension(tmp_path, capfd, argv):
    # N reaches the bases of every kind: the catalogued fields are 3-D, so
    # N=2 is refused up front, where a composite listing used to echo N=2
    # over 3-D bases
    outdir = tmp_path / "out"
    outdir.mkdir()
    code, line = _failed(capfd, argv, outdir)
    assert code == 2 and line["error"] == "validation"
    assert line["message"] == "field dimension 3 != N 2"


def test_solenoidal_lists_every_catalogued_level(tmp_path, capsys, monkeypatch):
    from hermflow import solenoidal

    code, line = _run(capsys, ["solenoidal", "--outdir", str(tmp_path / "ok")])
    assert code == 0
    assert sorted(line["counts"]) == sorted(
        f"m{m}:k{k}" for m in (1, 2) for k in solenoidal.catalog_levels(m)
    )
    assert len(line["counts"]) == 8
    # a catalogued level whose field fails validation is refused, not
    # dropped from the listing
    bad = solenoidal.fixture(2, 1)[0]
    monkeypatch.setitem(solenoidal._CATALOG, (2, 3), [bad])
    code, line = _run(capsys, ["solenoidal", "--outdir", str(tmp_path / "bad")])
    assert code == 2 and "outside level 3" in line["message"]


def test_evolve_stokes_rates(tmp_path, capsys):
    code, line = _run(
        capsys,
        [
            "evolve",
            "--model",
            "stokes",
            "--data",
            "l1:0=1",
            "--tau",
            "3",
            "--outdir",
            str(tmp_path),
        ],
    )
    assert code == 0
    rate = line["rates"]["l1:0"]
    assert rate["expected"] == -1.0
    assert rate["rel_err"] <= 1e-12
    assert line["resonance_status"] == "resonant"
    assert line["envelope_ok"] is True
    csv_text = (tmp_path / "trajectory.csv").read_text()
    assert csv_text.startswith("tau,")
    assert len(csv_text.strip().splitlines()) == 42


def test_evolve_nse_zero_tensor_matches_stokes(tmp_path, capsys):
    code, line = _run(
        capsys,
        [
            "evolve",
            "--model",
            "nse",
            "--data",
            "l1:0=0.2,l2:1=-0.1",
            "--tau",
            "2",
            "--steps",
            "21",
            "--check-linear",
            "--outdir",
            str(tmp_path),
        ],
    )
    assert code == 0
    assert line["stokes_dev"] <= 1e-9
    assert line["duhamel_residual"] <= 1e-8
    assert line["truncated"] is False


def test_evolve_rejects_data_above_truncation(tmp_path, capsys):
    code, line = _run(
        capsys,
        [
            "evolve",
            "--model",
            "stokes",
            "--data",
            "l3:0=1",
            "--K",
            "2",
            "--outdir",
            str(tmp_path),
        ],
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--data", "demo:nodal", "--K", "1"],
        ["nodal", "--K", "1", "--cell", "0.2", "--taus", "0,1", "--steps", "21"],
    ],
    ids=["evolve", "nodal"],
)
def test_K_below_the_data_level_exits_2(tmp_path, capfd, argv):
    # both commands resolve their data on the level-K basis they echo: the
    # level-3 demo data are refused at K=1, before any artifact
    code = cli.run(argv + ["--outdir", str(tmp_path)])
    out, err = capfd.readouterr()
    line = json.loads(out.strip().splitlines()[-1])
    assert code == 2 and line["error"] == "validation"
    assert line["message"] == "data reaches level 3 but K=1"
    assert err.splitlines() == [f"hermflow {argv[0]}: {line['message']}"]
    assert list(tmp_path.iterdir()) == []


def test_nodal_coarse_run(tmp_path, capsys):
    code, line = _run(
        capsys,
        [
            "nodal",
            "--taus",
            "0,1",
            "--cell",
            "0.2",
            "--steps",
            "21",
            "--outdir",
            str(tmp_path),
        ],
    )
    assert code == 0
    assert line["component"] == 1
    assert len(line["distances"]) == 2
    assert line["distances"][1] < line["distances"][0]
    assert (tmp_path / "distances.json").is_file()
    assert (tmp_path / "nodal_ref_c1.csv").is_file()
    assert (tmp_path / "nodal_tau1_c2.csv").is_file()


def test_nodal_distances_do_not_depend_on_the_cell(tmp_path, capsys):
    # the distances are to the exact zero surfaces, so the sampling cell
    # moves neither them nor the verdict, whose bound is the README's 0.05
    runs = []
    for cell in ("0.1", "0.05", "0.025"):
        code, line = _run(capsys, ["nodal", "--cell", cell, "--outdir", str(tmp_path / cell)])
        assert code == 0
        assert line["verdict"] == "PASS" and line["decreasing"]
        runs.append(line["distances"])
    assert runs[0] == runs[1] == runs[2]


def test_classify_terms_inline(tmp_path, capsys):
    terms = json.dumps(
        [{"x": [2, 0, 0], "t": 0, "c": 1}, {"x": [0, 0, 0], "t": 3, "c": 1}]
    )
    code, line = _run(
        capsys, ["classify", "--terms", terms, "--outdir", str(tmp_path)]
    )
    assert code == 0
    assert line["status"] == "classified"
    assert line["M"] == 2 and line["K"] == 3
    assert line["gamma"] == {"num": 3, "den": 2}


def test_classify_terms_file_matches_inline_terms(tmp_path, capsys):
    # the same JSON from a file or inline gives the same result; only the
    # echo names where the terms came from
    terms = json.dumps([{"x": [2, 0, 0], "t": 0, "c": 1}, {"x": [0, 0, 0], "t": 3, "c": 1}])
    path = tmp_path / "terms.json"
    path.write_text(terms)
    runs = []
    for name, argv in (("inline", ["--terms", terms]), ("file", ["--terms-file", str(path)])):
        code, line = _run(capsys, ["classify", *argv, "--outdir", str(tmp_path / name)])
        assert code == 0 and line["status"] == "classified"
        doc = json.loads((tmp_path / name / "zerotype.json").read_text())
        runs.append([{k: v for k, v in d.items() if k != "config"} for d in (line, doc)])
    assert runs[0] == runs[1]


def test_classify_terms_file_holding_no_list_exits_2(tmp_path, capsys):
    path = tmp_path / "terms.json"
    path.write_text(json.dumps({"x": [2, 0, 0], "c": 1}))
    outdir = tmp_path / "out"
    code, line = _run(capsys, ["classify", "--terms-file", str(path), "--outdir", str(outdir)])
    assert code == 2 and line["error"] == "validation"
    assert line["message"] == "terms must be a JSON list of monomials"
    assert list(outdir.iterdir()) == []


def test_classify_requires_some_input(tmp_path, capsys):
    code, line = _run(capsys, ["classify", "--outdir", str(tmp_path)])
    assert code == 2


def test_d_tensor_small_grid(tmp_path, capsys):
    code, line = _run(
        capsys,
        [
            "d-tensor",
            "--L",
            "6",
            "--n",
            "24",
            "--outdir",
            str(tmp_path),
        ],
    )
    assert code == 0
    assert line["rotation_self_max"] <= 1e-8
    assert line["flagged"] == 0
    assert abs(line["max_abs"] - 0.5) <= 1e-6
    assert line["projector"]["idempotence_rel"] <= 1e-10
    assert line["projector"]["divergence_rel"] <= 1e-8
    doc = json.loads((tmp_path / "tensor.json").read_text())
    assert doc["kind"] == "interaction-tensor"


def test_d_tensor_runs_no_fft(tmp_path, capsys, monkeypatch):
    # the tensor and criterion 6's projector check both work on the
    # frequency lattice, where the tensor applies the projector
    def refuse(*args, **kwargs):
        raise AssertionError("d-tensor ran an FFT")

    monkeypatch.setattr(np.fft, "fftn", refuse)
    monkeypatch.setattr(np.fft, "ifftn", refuse)
    code, line = _run(capsys, ["d-tensor", "--L", "6", "--n", "24", "--outdir", str(tmp_path)])
    assert code == 0
    assert line["projector"]["idempotence_rel"] <= 1e-10
    assert line["projector"]["divergence_rel"] <= 1e-8


@pytest.mark.parametrize("m", [1, 2])
def test_projector_check_catches_a_wrong_symbol(monkeypatch, m):
    # half of 1/|eta|^2 removes only half of the longitudinal part: both
    # ratios then read far above their README bounds (1e-10 and 1e-8)
    from hermflow import grid

    inv_eta_sq = grid._inv_eta_sq
    monkeypatch.setattr(grid, "_inv_eta_sq", lambda spec, live: 0.5 * inv_eta_sq(spec, live))
    got = cli._projector_diagnostics(grid.GridSpec(8.0, 32), m, 0)
    assert got["idempotence_rel"] > 1e-10
    assert got["divergence_rel"] > 1e-8


def test_evolve_reuses_saved_tensor(tmp_path, capsys):
    code, line = _run(
        capsys,
        ["d-tensor", "--L", "6", "--n", "24", "--outdir", str(tmp_path)],
    )
    assert code == 0
    tensor_path = tmp_path / "tensor.json"
    outdir = tmp_path / "evolve"
    code, line = _run(
        capsys,
        [
            "evolve",
            "--model",
            "nse",
            "--data",
            "l1:0=0.2",
            "--K",
            "1",
            "--tau",
            "2",
            "--steps",
            "21",
            "--tensor",
            str(tensor_path),
            "--L",
            "6",
            "--n",
            "24",
            "--outdir",
            str(outdir),
        ],
    )
    assert code == 0
    assert line["duhamel_residual"] <= 1e-8


def test_outdir_is_created(tmp_path, capsys):
    nested = tmp_path / "deep" / "er"
    code, _ = _run(capsys, ["wkbj", "--m", "2", "--outdir", str(nested)])
    assert code == 0
    assert nested.is_dir() and (nested / "wkbj.json").is_file()


# every subcommand's flags as (option string, dest, action, type, choices);
# the common two come first on every subcommand
_COMMON_FLAGS = [
    ("--config", "config", "store", None, None),
    ("--outdir", "outdir", "store", None, None),
]
_SEED_FLAG = ("--seed", "seed", "store", "int", None)
_WORKERS_FLAG = ("--workers", "workers", "store", "int", None)
_FLAGS = {
    "basis": [
        ("--m", "m", "store", "int", None),
        ("--N", "N", "store", "int", None),
        ("--max-level", "max_level", "store", "int", None),
    ],
    "eig-check": [
        ("--m", "m", "append", "int", None),
        ("--N", "N", "store", "int", None),
        ("--max-level", "max_level", "store", "int", None),
    ],
    "biortho": [
        ("--m", "m", "append", "int", None),
        ("--N", "N", "store", "int", None),
        ("--max-level", "max_level", "store", "int", None),
    ],
    "solenoidal": [
        ("--m", "m", "append", "int", None),
        ("--N", "N", "store", "int", None),
        ("--kind", "kind", "store", None, ["fixture", "kernel", "composite"]),
        ("--level", "level", "store", "int", None),
        ("--K", "K", "store", "int", None),
    ],
    "kernel": [
        ("--m", "m", "store", "int", None),
        ("--r-max", "r_max", "store", "float", None),
        ("--dr", "dr", "store", "float", None),
        ("--tol", "tol", "store", "float", None),
    ],
    "wkbj": [
        ("--m", "m", "store", "int", None),
        ("--N", "N", "store", "int", None),
        ("--fit", "fit", "store_true", None, None),
        ("--r-max", "r_max", "store", "float", None),
        ("--dr", "dr", "store", "float", None),
    ],
    "d-tensor": [
        ("--m", "m", "store", "int", None),
        ("--K", "K", "store", "int", None),
        ("--L", "L", "store", "float", None),
        ("--n", "n", "store", "int", None),
        _SEED_FLAG,
        _WORKERS_FLAG,
    ],
    "evolve": [
        ("--model", "model", "store", None, ["stokes", "nse", "burnett"]),
        ("--data", "data", "store", None, None),
        ("--tau", "tau", "store", "float", None),
        ("--steps", "steps", "store", "int", None),
        ("--K", "K", "store", "int", None),
        ("--rtol", "rtol", "store", "float", None),
        ("--L", "L", "store", "float", None),
        ("--n", "n", "store", "int", None),
        ("--tensor", "tensor", "store", None, None),
        ("--check-linear", "check_linear", "store_true", None, None),
        _SEED_FLAG,
        _WORKERS_FLAG,
    ],
    "nodal": [
        ("--model", "model", "store", None, ["stokes", "burnett"]),
        ("--data", "data", "store", None, None),
        ("--taus", "taus", "store", None, None),
        ("--R", "R", "store", "float", None),
        ("--cell", "cell", "store", "float", None),
        ("--component", "component", "store", "int", None),
        ("--K", "K", "store", "int", None),
        ("--steps", "steps", "store", "int", None),
        _SEED_FLAG,
    ],
    "classify": [
        ("--terms", "terms", "store", None, None),
        ("--terms-file", "terms_file", "store", None, None),
        ("--suite", "suite", "store", None, None),
        ("--max-order", "max_order", "store", "int", None),
    ],
    "verify": [
        ("--m", "m", "store", "int", None),
        ("--level", "level", "append", "int", None),
        ("--field-index", "field_index", "store", "int", None),
        ("--t-end", "t_end", "store", "float", None),
        ("--L", "L", "store", "float", None),
        ("--n-tau", "n_tau", "store", "int", None),
        _WORKERS_FLAG,
    ],
}
_ACTIONS = {
    argparse._StoreAction: "store",
    argparse._AppendAction: "append",
    argparse._StoreTrueAction: "store_true",
    argparse._StoreFalseAction: "store_false",
}


def test_generated_flags_match_the_pinned_lists():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(_FLAGS)
    for command, sp in sub.choices.items():
        rows = []
        for a in sp._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            (flag,) = a.option_strings
            assert a.default is argparse.SUPPRESS  # an absent flag keeps the file value
            kind = getattr(a.type, "__name__", None)
            rows.append((flag, a.dest, _ACTIONS[type(a)], kind, a.choices and list(a.choices)))
        assert rows == _COMMON_FLAGS + _FLAGS[command], command


def test_readme_names_only_flags_the_cli_has():
    # every `--flag` the README mentions is a flag of some command (pip's
    # `--no-build-isolation` aside), and its list of switches is the bool
    # settings of the command table
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {f for sp in sub.choices.values() for a in sp._actions for f in a.option_strings}
    unknown = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme)) - flags
    assert unknown == {"--no-build-isolation"}
    (switches,) = re.findall(r"Switches \(([^)]*)\)", readme)
    bools = {p.name for params in cli._PARAMS.values() for p in params.values() if p.type is bool}
    assert set(re.findall(r"`(\w+)`", switches)) == bools


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("d-tensor", {"n": [64]}),
        ("d-tensor", {"K": 1.5}),
        ("d-tensor", {"refine": "no"}),
        ("d-tensor", {"N": 2}),
        ("basis", {"m": None}),
        ("basis", {"m": 1.9}),
        ("basis", {"max_level": "3"}),
        ("basis", {"N": True}),
        ("evolve", {"data": 5}),
        ("evolve", {"model": "heat"}),
        ("evolve", {"tau": float("inf")}),
        ("evolve", {"tau": 10**400}),
        ("nodal", {"taus": [0, 1]}),
        ("nodal", {"K": None}),
        ("verify", {"level": [1, 2.0]}),
        ("classify", {"terms": [{"x": [2, 0, 0], "c": 1}]}),
        ("nodal", {"component": 3, "cell": 0.2}),
        ("kernel", {"dr": 0.0}),
        ("wkbj", {"dr": 0.0, "fit": True}),
        ("nodal", {"cell": 0.0}),
        ("nodal", {"R": 0.0}),
        ("kernel", {"r_max": 0.05}),
        ("kernel", {"r_max": 3.0, "m": 1}),
        ("nodal", {"steps": 0}),
        ("evolve", {"steps": 0, "model": "nse", "K": 1, "data": "l1:0=1"}),
        ("d-tensor", {"L": 1e-300}),
        ("classify", {"delta": 0.0, "terms": '[{"x":[1,0,0],"c":1}]'}),
        ("classify", {"delta": -0.125, "terms": '[{"x":[1,0,0],"c":1}]'}),
        ("evolve", {"rtol": 0.0, "model": "nse", "K": 1, "data": "l1:0=1"}),
        # the projector check always runs; its old switch is an unknown key
        ("d-tensor", {"check_projector": False}),
        # so are the keys of other removed settings, found in older echoes
        ("d-tensor", {"refine": True}),
        ("d-tensor", {"flag_tol": 1e-3}),
        ("d-tensor", {"N": 3}),
        ("evolve", {"zero_tensor": False}),
        ("basis", {"seed": 0}),
        ("classify", {"threshold": 1e-7, "terms": '[{"x":[1,0,0],"c":1}]'}),
    ],
)
def test_bad_config_value_exits_2(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, line = _run(capsys, [command, "--config", str(path), "--outdir", str(tmp_path)])
    assert code == 2 and line["error"] == "validation"
    assert list(cfg)[0] in line["message"]
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "argv, cfg, echoed",
    [
        (["evolve"], {"L": 8}, '"L": 8.0'),
        (["verify"], {"level": 2, "L": 16}, '"level": [2]'),
        (["wkbj", "--fit"], {"r_max": 40}, '"r_max": 40.0'),
    ],
)
def test_echo_shows_the_typed_values(tmp_path, capsys, argv, cfg, echoed):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.run(argv + ["--config", str(path), "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert echoed in out
    name = json.loads(out)["artifacts"][-1]
    assert echoed in json.dumps(json.loads((tmp_path / name).read_text())["config"])


@pytest.mark.parametrize("command", ["evolve", "nodal"])
@pytest.mark.parametrize(
    "doc", [[1], {"coeffs": [1]}, {"coeffs": {"l1:0": None}}, {"coeffs": {"l1:0": 10**400}}]
)
def test_malformed_data_file_exits_2(tmp_path, capsys, command, doc):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--data", f"file:{path}", "--outdir", str(tmp_path)]
    code, line = _run(capsys, argv)
    assert code == 2 and line["error"] == "validation"
    assert str(path) in line["message"]


@pytest.mark.parametrize("form", ["inline", "file"])
def test_data_label_given_twice_exits_2(tmp_path, capsys, form):
    # `l1:0` and `1:0` are one label; the last value won without a word
    desc = "l1:0=1,l1:0=2"
    if form == "file":
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"coeffs": {"l1:0": 1, "1:0": 2}}))
        desc = f"file:{path}"
    outdir = tmp_path / "out"
    code, line = _run(capsys, ["evolve", "--data", desc, "--outdir", str(outdir)])
    assert code == 2 and line["error"] == "validation"
    assert line["message"].endswith("label l1:0 is given twice")
    assert not outdir.exists() or list(outdir.iterdir()) == []


_ENTRY = {"alpha": [1, 0], "gamma": [1, 1], "beta": [1, 2], "value": 0.5, "error": 0.0}
_TENSOR = {"grid": {"L": 6.0, "n": 24}, "m": 1, "N": 3, "entries": [_ENTRY]}


@pytest.mark.parametrize(
    "doc",
    [
        {"entries": []},
        {**_TENSOR, "entries": [{k: v for k, v in _ENTRY.items() if k != "gamma"}]},
        {**_TENSOR, "entries": [{**_ENTRY, "value": None}]},
        {**_TENSOR, "entries": [{**_ENTRY, "alpha": 1}]},
        {**_TENSOR, "grid": [6.0, 24]},
        {**_TENSOR, "m": "1"},
    ],
)
def test_malformed_tensor_file_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(doc))
    argv = ["evolve", "--model", "nse", "--data", "l1:0=0.2", "--K", "1",
            "--tensor", str(path), "--outdir", str(tmp_path)]
    code, line = _run(capsys, argv)
    assert code == 2 and line["error"] == "validation"
    assert str(path) in line["message"]


def _tensor_doc() -> dict:
    """A complete K=1 tensor document on the L=6, n=24 grid, refined as
    `d-tensor` refines it: the rotation couplings eps/2."""
    from hermflow.grid import GridSpec
    from hermflow.solenoidal import composite_basis

    doc = cli._zero_tensor(composite_basis(1, 1), 1, GridSpec(6.0, 24)).to_json_dict()
    doc["refined"] = {"L": 12.0, "n": 48}
    for e in doc["entries"]:
        (ka, a), (kg, g), (kb, b) = e["alpha"], e["gamma"], e["beta"]
        if ka == kg == kb == 1:
            e["value"] = 0.25 * (a - g) * (g - b) * (b - a)
    return doc


def _evolve_on(tmp_path, capsys, doc):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(doc))
    argv = ["evolve", "--model", "nse", "--data", "l1:0=0.2", "--K", "1", "--tau", "1",
            "--L", "6", "--n", "24", "--tensor", str(path), "--outdir", str(tmp_path / "out")]
    code, line = _run(capsys, argv)
    return code, line, str(path)


def test_tensor_file_must_hold_every_triple_once(tmp_path, capsys):
    doc = _tensor_doc()
    code, _, _ = _evolve_on(tmp_path, capsys, doc)
    assert code == 0
    # without its six nonzero couplings the file would integrate as zeros
    kept = [e for e in doc["entries"] if e["value"] == 0.0]
    assert len(kept) == len(doc["entries"]) - 6
    code, line, path = _evolve_on(tmp_path, capsys, {**doc, "entries": kept})
    assert code == 2 and line["error"] == "validation"
    assert line["message"] == f"{path}: no entry for alpha [1, 0], gamma [1, 1], beta [1, 2]"
    # a repeated triple would let the later value win silently
    first = doc["entries"][1]
    again = {**first, "value": 7.0}
    code, line, path = _evolve_on(tmp_path, capsys, {**doc, "entries": doc["entries"] + [again]})
    assert code == 2 and line["error"] == "validation"
    assert line["message"] == (
        f"{path}: repeated entry for alpha {first['alpha']}, gamma {first['gamma']}, "
        f"beta {first['beta']}"
    )


@pytest.mark.parametrize(
    "change, message",
    [
        ({"m": 2}, "m 2 does not match this run's 1"),
        ({"N": 7}, "N 7 does not match this run's 3"),
        ({"grid": {"L": 8.0, "n": 24}}, "grid L=8.0, n=24 does not match this run's L=6.0, n=24"),
        ({"grid": {"L": 6, "n": 32}}, "grid L=6.0, n=32 does not match this run's L=6.0, n=24"),
        ({"refined": {}}, "refined none does not match this run's L=12.0, n=48"),
        (
            {"refined": {"L": 12.0, "n": 96}},
            "refined L=12.0, n=96 does not match this run's L=12.0, n=48",
        ),
    ],
    ids=["m", "N", "L", "n", "unrefined", "refined-n"],
)
def test_reused_tensor_must_match_the_run(tmp_path, capsys, change, message):
    # a tensor of another order, dimension, grid or refinement grid is not
    # the computation the echoed config describes (a run without --tensor
    # always refines), so it is refused by name
    code, line, path = _evolve_on(tmp_path, capsys, {**_tensor_doc(), **change})
    assert code == 2 and line["error"] == "validation"
    assert line["message"] == f"{path}: {message}"
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("key", ["gamma", "beta"])
def test_tensor_file_labels_come_from_the_alpha_axis(tmp_path, capsys, key):
    # all three axes are indexed by the alpha labels, so a gamma or beta
    # label that no entry has as alpha is refused by name
    doc = _tensor_doc()
    doc["entries"][0][key] = [5, 0]
    code, line, path = _evolve_on(tmp_path, capsys, doc)
    assert code == 2 and line["error"] == "validation"
    assert line["message"] == f"{path}: {key} label [5, 0] is not an alpha label"
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize(
    "argv, what",
    [
        (["evolve", "--tau", "0"], "tau"),
        (["evolve", "--tau", "-1"], "tau"),
        (["evolve", "--model", "nse", "--K", "1", "--data", "l1:0=1", "--tau", "0",
          "--check-linear"], "tau"),
        (["evolve", "--model", "nse", "--K", "1", "--data", "l1:0=1", "--tau", "-1",
          "--check-linear"], "tau"),
        (["nodal", "--taus", "0"], "the largest of taus"),
        (["nodal", "--taus=-1"], "taus"),
        (["nodal", "--taus=0,1,-1"], "taus"),
    ],
)
def test_non_positive_times_exit_2_before_any_artifact(tmp_path, capfd, argv, what):
    # tau = 0 is t = -1, where the data are prescribed: no run ends there
    code = cli.run(argv + ["--outdir", str(tmp_path)])
    out, err = capfd.readouterr()
    line = json.loads(out)
    assert code == 2 and line["error"] == "validation"
    assert line["message"].startswith(f"{what} must be ")
    assert err == f"hermflow {argv[0]}: {line['message']}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["nodal", "--cell", "0.1"],
        ["verify", "--m", "1", "--level", "1", "--L", "16"],
        ["wkbj", "--m", "2", "--N", "3", "--fit"],
        ["d-tensor", "--K", "2", "--n", "32", "--L", "6"],
    ],
    ids=["nodal", "verify", "wkbj-fit", "d-tensor"],
)
def test_blas_threads_do_not_change_bytes(tmp_path, argv):
    # grid and point evaluation runs elementwise (`polynomial.horner`), not
    # through BLAS; the tensor's contractions of folded octant tables still
    # do, and the envelope fit solves its normal equations through LAPACK;
    # the thread count must not reach the bytes of the summary or of any
    # artifact
    import subprocess
    import sys

    import hermflow

    root = os.path.dirname(os.path.dirname(os.path.abspath(hermflow.__file__)))
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
        outdir = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "hermflow.cli", *argv, "--outdir", str(outdir)],
            env=env, capture_output=True, check=True,
        )
        files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        outs.append((proc.stdout, files))
    assert outs[0][1] and outs[0] == outs[1]


@pytest.mark.parametrize(
    "terms",
    [
        [{"c": 1}],
        [1],
        [{"x": [2, 0], "c": 1}],
        [{"x": [2.0, 0, 0], "c": 1}],
        [{"x": [2, 0, 0], "t": None, "c": 1}],
        # u(0, 0) = 1e-12 is not a zero, however small
        [_term([0, 0, 0], 0, "1e-12"), _term([1, 0, 0], 0), _term([0, 0, 0], 1)],
    ],
)
def test_malformed_terms_exit_2(tmp_path, capsys, terms):
    argv = ["classify", "--terms", json.dumps(terms), "--outdir", str(tmp_path)]
    code, line = _run(capsys, argv)
    assert code == 2 and line["error"] == "validation"
    assert list(tmp_path.iterdir()) == []


def test_terms_polynomial_sums_like_terms():
    from fractions import Fraction

    from hermflow.polynomial import Polynomial

    terms = [
        {"x": [1, 0, 0], "c": "0.1"},
        {"x": [1, 0, 0], "t": 0, "c": "-1/10"},
        {"x": [0, 2, 0], "t": 1, "c": "1e400"},
        {"x": [0, 2, 0], "t": 1, "c": 3},
        {"x": [0, 0, 0], "t": 2, "c": "-22/7"},
    ]
    want = {(0, 2, 0, 1): Fraction(10**400 + 3), (0, 0, 0, 2): Fraction(-22, 7)}
    assert cli._terms_polynomial(terms) == Polynomial(4, want)


@pytest.mark.parametrize(
    "cloud",
    [
        [[-0.0, 0.0, 5e-324], [1e16, 1e-5, 0.1 + 0.2], [0.0, -0.0, -0.0]],
        [[1.0, 2.0, 3.0]] * 4,
        np.zeros((0, 3)),
    ],
    ids=["values", "repeated", "empty"],
)
def test_cloud_csv_is_the_repr_of_every_coordinate(cloud):
    # the one-pass formatting writes the bytes of a line-by-line repr join
    cloud = np.asarray(cloud, float)
    lines = ["x,y,z"] + [",".join(repr(float(v)) for v in row) for row in cloud]
    assert cli._cloud_csv(cloud) == "\n".join(lines) + "\n"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _well_typed(p):
    """Values of the declared type, so that many drawn configs resolve."""
    one = {
        int: st.integers(),
        float: st.integers() | st.floats(allow_nan=False, allow_infinity=False),
        bool: st.booleans(),
        str: st.text(max_size=4),
    }[p.type]
    if p.choices:
        one = st.sampled_from(p.choices)
    if isinstance(p.default, list):
        one = one | st.lists(one, max_size=3)
    return one | st.none() if p.default is None else one


def _declared(p, v) -> bool:
    if v is None:
        return p.default is None
    if isinstance(p.default, list):
        return isinstance(v, list) and all(type(x) is p.type for x in v)
    return type(v) is p.type and (not p.choices or v in p.choices)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_resolved_config_has_declared_types_and_round_trips(tmp_path, monkeypatch, data):
    monkeypatch.delenv("HERMFLOW_OUTDIR", raising=False)
    command = data.draw(st.sampled_from(sorted(cli._PARAMS)))
    params = cli._PARAMS[command]
    optional = {name: _well_typed(p) for name, p in params.items()}
    raw = data.draw(st.fixed_dictionaries({}, optional=optional))
    raw.update(data.draw(st.dictionaries(st.sampled_from(sorted(params)), _JSON, max_size=2)))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    ns = argparse.Namespace(command=command, config=str(path))
    try:
        cfg = cli._resolve(command, ns)
    except ValidationError:
        return
    assert set(cfg) == set(params)
    for name, p in params.items():
        assert _declared(p, cfg[name]), (name, cfg[name])
    echo = cli._echo(cfg, command)
    path.write_text(json.dumps({k: v for k, v in echo.items() if k != "command"}))
    again = cli._echo(cli._resolve(command, ns), command)
    assert json.dumps(again, sort_keys=True) == json.dumps(echo, sort_keys=True)
