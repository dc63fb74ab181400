"""Command bytes, pinned by digest.

`basis`, `eig-check`, `biortho`, `solenoidal` and `classify` compute in
`Fraction`s and write JSON, so their stdout and artifacts do not depend
on the numpy or BLAS build: the sha256 of each is recorded here and must
not move. The trajectory commands (`evolve`, `verify`, `nodal`), `kernel`,
`wkbj --fit` and `d-tensor` (at reduced sizes) compute in floats, so
their digests hold for the numpy build they were recorded with,
`NUMPY_VERSION`; a mismatch names both versions.
A change that moves them on purpose records the new digests and says in
CHANGES which bytes moved and why:

    PYTHONPATH=src python tests/test_digests.py --record

re-runs every pinned command and prints, in this file's layout, the new
entry of each one whose digests moved, to paste over the old one.
"""
from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile
import textwrap

import numpy as np
import pytest

from hermflow import cli

# argv -> sha256 of stdout, then of each artifact by name
DIGESTS = {
    ("basis",): {
        "stdout": "6165eeccdfd89a2ea18f2a1382ab3e8f70babc7589be97bff0ebcb1fee5f8b30",
        "basis.json": "7c8c0197c2a834e1e96936a6ac49050c9d2530790042f642b2228d96bbed8b50",
    },
    ("eig-check",): {
        "stdout": "596029c4defaed7a21c7c6df511fa203b9fbcac9b31af59f459f05224d460c7b",
        "eig_check.json": "3423e7822c51c050d4abbfeef0c4b2de325aea5760e1d568d9e1cc9659bebccf",
    },
    ("biortho",): {
        "stdout": "d0dce62b1c27d403b5824b2b658ec5b72ef7f6fd16079d1e68e361d0f80337ee",
        "biortho.json": "4b306e50f1afca77ea92e2c5c1a96f582ca243b46b1c5ade9309d868049ffbf9",
    },
    ("solenoidal",): {
        "stdout": "56175dc0263efb2e834ca3e1bd61a1c8f721dd12ee660678eee868457ddf8b32",
        "solenoidal.json": "b03984467201b23307af12a610d45ea3cd3452274a47c11eef6e98dae6d119fd",
    },
    ("solenoidal", "--kind", "kernel"): {
        "stdout": "2caf85441911ec9feda66c342235215b34262db982cbab9c03c95797a3eef712",
        "solenoidal.json": "9984f188c7dc1bfb63f794052c3fa93d86b75d6a90c7e41831af764116dfd082",
    },
    ("solenoidal", "--kind", "composite"): {
        "stdout": "7965c15be73c5a6498cc84778a0883880f56d323437c9162ea2f4463cd5c9234",
        "solenoidal.json": "22fa0e4c1a83fce0858bb88406eb55bc9d9474e07afad11cb84b5c501997efc4",
    },
    ("classify", "--suite", "synthetic"): {
        "stdout": "4f84674b486cd9132448032fb8c7569b3ad076f15be7b3547cc18d718840cbf5",
        "classify_suite.json": "a09603a6f6841c289c7718273a75bedadab6663e2711e5322a8c70b26933a6ec",
    },
}

# the numpy build FLOAT_DIGESTS were recorded with
NUMPY_VERSION = "2.4.6"
FLOAT_DIGESTS = {
    ("evolve",): {
        "stdout": "4f5135fb31aeb8b97a84b61ca8a30ac2c857cd2252fdb4ea69baf09981befde6",
        "resonance.json": "7bd39c4296d4227e4efbbed058dd1cd167167e5ea97b896521aff2ae8c4e6306",
        "trajectory.csv": "5205cf164284fa01a209ffc1532a5fd253d7c93d46023d65a0ed98c7b67e6925",
    },
    ("evolve", "--model", "burnett", "--data", "demo:small", "--K", "2"): {
        "stdout": "51bad71c2083ea106143cbe597db3de84bf9a42c1a27f6ea16259a9f9c92bddf",
        "resonance.json": "6af27877313d37807adb1d8680c5d834ddbb38d70f827c089c5a858d627016b5",
        "trajectory.csv": "c06db4a06b546e17267f1f97f52ccdfbd07ac4c75e291f0e2a6a5ab1d2a01978",
    },
    ("evolve", "--model", "nse", "--K", "1", "--data", "demo:small", "--tau", "1",
     "--check-linear", "--n", "16", "--L", "4"): {
        "stdout": "4eef1721c5e30340f885f26f2eb5a8a06ca53e8dc25bc3e8f3b0d7aa6dfe1220",
        "resonance.json": "aa7e6be02c29f4d9e826da132c0cdffa1c1eb839f66020b49f23e830a0881bd5",
        "trajectory.csv": "f427c86e4f914f8bf2661492ee13c52cdd98806d3eff16348fdf94230089d8a3",
    },
    ("verify", "--m", "1", "--level", "1", "--n-tau", "7", "--L", "16"): {
        "stdout": "a63db77f0b87439186c1effb65598cc72f239db9787ed26ae376b6dba89bc213",
        "verify_m1.json": "7dd7dfcd351d9b09f7985c2b02cf6a5c7a5c81acfcba6932a0fd408c64ab54d4",
        "verify_m1_l1.csv": "8b2f01ce5fc04738e92be1509d048f05c2f1db3da1a4e719a0eb199409eb0f63",
    },
    ("verify", "--m", "2", "--level", "1", "--n-tau", "7", "--L", "16"): {
        "stdout": "266c5f4902e040d2bdcd88bbcbbbb7299ae87763224d14867f1febef11559d88",
        "verify_m2.json": "fd53db32a0547f08ab2af2ef1c2bb5e09f2e4d10c758a562fd0d425b9591f260",
        "verify_m2_l1.csv": "f0f1b236650426c3a776d4796f9f18ea2ba3cae9479964abacfdfc8212dcf250",
    },
    ("nodal", "--taus", "0,1,2", "--cell", "0.1"): {
        "stdout": "1d2fe7f52a5215d186e8a687cd54ea895d58be730d8a4518529cd3cfa3067c61",
        "distances.json": "5f73c855c2ca0f6be4bb07f0131e126314f9b159a25328ada3a91e2d855862b4",
        "nodal_ref_c1.csv": "b3f347fc7e41274773039f386f8f484604ca64a559b669a85a894deffd899658",
        "nodal_tau0_c0.csv": "6d36d1ff954d7a165aaff0f701c466b9d8db047de296d0dea6636d4a1dd76b13",
        "nodal_tau0_c1.csv": "a6018c1e1966e87f06a10a7efa2d782f96680c143b1320d0f008542a876b813d",
        "nodal_tau0_c2.csv": "4a8b859bf534bd8924211642c8fcace2713129258ced009cd1307ca778566bb9",
        "nodal_tau1_c0.csv": "3092382d030926200395663a9c2fe0d3c8257ac1463f0580a34b558fcd19917f",
        "nodal_tau1_c1.csv": "890e40307a4012c4d9bbd1f0ff025f864e3dbbf2f9655466798f6f60f0333bf0",
        "nodal_tau1_c2.csv": "4a8b859bf534bd8924211642c8fcace2713129258ced009cd1307ca778566bb9",
        "nodal_tau2_c0.csv": "1e6173dfec9145757d3fabbe2f44b79f19d95e8e0663d337db7f40d77982a002",
        "nodal_tau2_c1.csv": "8c89b2792761643dec245fa34584a6c999d685120b765f91fa899e877db9a93e",
        "nodal_tau2_c2.csv": "4a8b859bf534bd8924211642c8fcace2713129258ced009cd1307ca778566bb9",
    },
    ("kernel",): {
        "stdout": "1a26110eb702868873de6c3a6ecd7ab9df3364a2e0d28254786f8de78f45bf4a",
        "kernel_m2.csv": "65266ee0dfe1ac548eba843b36a0cd61da3df5358afe573b28c2278165169de2",
    },
    ("wkbj", "--fit"): {
        "stdout": "30613e54be282661bb572911819cb461366e50c292898a69a03ddd74c2940c36",
        "wkbj.json": "a599327bce148125e0672afb09a2ac22cf39de7d1c1ee9271901c59ae5c58f04",
    },
    ("d-tensor", "--n", "16", "--L", "4"): {
        "stdout": "b28e6e4e460a814be0f61d3aa2ef965caaa8d59256230e5fcc91aecd920df1ed",
        "tensor.json": "430b56201986efa0a8750327bec3f36386c409d94541b7cf637195a12e881895",
    },
    ("d-tensor", "--K", "2", "--n", "16", "--L", "4"): {
        "stdout": "21e4a91c114dd27c8e3e7d754b153f93ce9067c11582a040d58c585b25f40e07",
        "tensor.json": "895f7f2fc96c1434d60c88adf825bbe9f92041e4fd3567e50f7d626aaf92d976",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(outdir, argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv) + ["--outdir", str(outdir)])
    got = {"stdout": _sha256(out.getvalue().encode())}
    got.update((f.name, _sha256(f.read_bytes())) for f in sorted(outdir.iterdir()))
    assert code == 0, argv
    return got


@pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
def test_exact_commands_keep_their_bytes(tmp_path, argv):
    assert _digests(tmp_path, argv) == DIGESTS[argv]


@pytest.mark.parametrize("argv", list(FLOAT_DIGESTS), ids=" ".join)
def test_trajectory_commands_keep_their_bytes(tmp_path, argv):
    assert _digests(tmp_path, argv) == FLOAT_DIGESTS[argv], (
        f"digests recorded with numpy {NUMPY_VERSION}, this is numpy {np.__version__}"
    )


def _entry(argv, digests: dict) -> str:
    """One entry of a digest table, laid out as in this file."""
    key = ", ".join(f'"{a}"' for a in argv) + ("," if len(argv) == 1 else "")
    head = textwrap.fill(
        f"({key}): {{", width=100, initial_indent="    ", subsequent_indent="     ",
        break_long_words=False, break_on_hyphens=False,
    )
    rows = "".join(f'        "{name}": "{digest}",\n' for name, digest in digests.items())
    return f"{head}\n{rows}    }},\n"


def record() -> None:
    """Re-run every pinned command; print the new entry of each that moved."""
    for title, table in (("DIGESTS", DIGESTS), ("FLOAT_DIGESTS", FLOAT_DIGESTS)):
        for argv, want in table.items():
            with tempfile.TemporaryDirectory() as tmp:
                got = _digests(pathlib.Path(tmp), argv)
            if got != want:
                print(f"# {title}, numpy {np.__version__}\n{_entry(argv, got)}", end="")


def test_record_prints_each_moved_entry_in_the_file_layout(monkeypatch, capsys):
    # a stale entry is printed with its new digests, a current one is not
    argv, want = ("basis",), DIGESTS[("basis",)]
    module = sys.modules[__name__]
    stale = {**want, "stdout": "0" * 64}
    monkeypatch.setattr(module, "DIGESTS", {argv: stale, ("eig-check",): DIGESTS[("eig-check",)]})
    monkeypatch.setattr(module, "FLOAT_DIGESTS", {})
    record()
    text = capsys.readouterr().out
    assert text == f"# DIGESTS, numpy {np.__version__}\n" + _entry(argv, want)
    assert ast.literal_eval("{" + text + "}") == {argv: want}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_digests.py --record")
    record()
