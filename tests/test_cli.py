from __future__ import annotations

import json
import os

import pytest

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


def test_artifacts_byte_identical_across_reruns_and_workers(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    c1, l1 = _run(capsys, ["eig-check", "--max-level", "3", "--outdir", str(d1)])
    c2, l2 = _run(
        capsys,
        ["eig-check", "--max-level", "3", "--outdir", str(d2), "--workers", "4"],
    )
    assert c1 == c2 == 0
    assert l1 == l2  # outdir/workers are plumbing, not config
    assert (d1 / "eig_check.json").read_bytes() == (d2 / "eig_check.json").read_bytes()


def test_verify_byte_identical_across_workers(tmp_path, capsys):
    argv = ["verify", "--m", "1", "--level", "1", "--n", "32", "--L", "16"]
    outs = []
    for w in ("1", "2"):
        code = cli.run(argv + ["--workers", w, "--outdir", str(tmp_path / w)])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    names = json.loads(outs[0].strip().splitlines()[-1])["artifacts"]
    assert names == ["verify_m1_l1.csv", "verify_m1.json"]
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    (res,) = json.loads((tmp_path / "1" / "verify_m1.json").read_text())["results"]
    assert isinstance(res["max_residual"], float) and 0.0 < res["max_residual"] < 1.0


@pytest.mark.parametrize("m, L", [(1, "0.5"), (2, "3")])
def test_verify_box_too_small_exits_2(tmp_path, capsys, m, L):
    argv = ["verify", "--m", str(m), "--L", L, "--n", "16", "--outdir", str(tmp_path)]
    code, line = _run(capsys, argv)
    assert code == 2 and line["error"] == "validation"
    assert "too small" in line["message"]


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


def test_bad_data_descriptor_exits_2(tmp_path, capsys):
    code, line = _run(
        capsys,
        ["evolve", "--data", "garbage:oops", "--outdir", str(tmp_path)],
    )
    assert code == 2
    assert line["error"] == "validation" and not line["ok"]


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
    def fail(cfg, outdir):
        raise exc

    monkeypatch.setitem(cli.HANDLERS, "basis", fail)
    assert cli.run(["basis", "--outdir", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    assert out == line + "\n"
    assert err == f"hermflow basis: {exc}\n"


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


def test_evolve_stokes_rates(tmp_path, capsys):
    code, line = _run(
        capsys,
        [
            "evolve",
            "--model",
            "stokes",
            "--data",
            "fixture:1:0",
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
            "--zero-tensor",
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


def test_evolve_reuses_saved_tensor(tmp_path, capsys):
    code, line = _run(
        capsys,
        ["d-tensor", "--L", "6", "--n", "24", "--no-check-projector", "--outdir", str(tmp_path)],
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
