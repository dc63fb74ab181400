"""The exact commands' bytes, pinned by digest.

`basis`, `eig-check`, `biortho` and `solenoidal` compute in `Fraction`s
and write JSON, so their stdout and artifacts do not depend on the numpy
or BLAS build: the sha256 of each is recorded here and must not move.
A change that moves them on purpose records the new digests and says in
CHANGES which bytes moved and why.
"""
from __future__ import annotations

import hashlib

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
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
def test_exact_commands_keep_their_bytes(tmp_path, capsys, argv):
    code = cli.run(list(argv) + ["--outdir", str(tmp_path)])
    got = {"stdout": _sha256(capsys.readouterr().out.encode())}
    got.update((f.name, _sha256(f.read_bytes())) for f in sorted(tmp_path.iterdir()))
    assert code == 0
    assert got == DIGESTS[argv]
