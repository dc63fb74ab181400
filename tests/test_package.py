from __future__ import annotations

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hermflow

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hermflow"


def test_every_exported_name_resolves():
    # a renamed or deleted function must leave __all__ with it
    missing = [name for name in hermflow.__all__ if not hasattr(hermflow, name)]
    assert missing == []
    assert len(set(hermflow.__all__)) == len(hermflow.__all__)


def test_every_public_definition_has_a_reference():
    # a public top-level def or class that nothing in the package or the
    # README names outside its own definition is dead code, or a reference
    # only the tests use, which belongs in tests/oracles.py; the export
    # list of __init__ names every export, so it does not count
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    texts = {p: p.read_text() for p in [*sources, ROOT / "README.md"]}
    unreferenced = []
    for path in sources:
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            outside = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
            if not word.search(outside) and not any(
                word.search(text) for other, text in texts.items() if other != path
            ):
                unreferenced.append(f"{path.stem}.{node.name}")
    assert unreferenced == []


def test_readme_quick_tour_runs():
    # the documented library example must keep working as the API narrows
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_no_module_runs_an_fft():
    # every field enters in closed form and stays on the frequency lattice;
    # the FFT routes are references in tests/oracles.py
    named = [p.name for p in sorted(PACKAGE.glob("*.py")) if re.search(r"\bfft", p.read_text())]
    assert named == []


def test_no_module_imports_scipy():
    # scipy's import costs more than most commands compute; the package has
    # its own Simpson rule, envelope fit, Dormand-Prince pair and nodal
    # distances, and scipy serves only as the tests' oracle
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
                found += [(path.stem, where, n) for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def _fresh(script: str, *args: str, cwd=None):
    """The JSON that `script` prints last, run in a fresh interpreter on
    the package under src/ with `args` as sys.argv[1:]."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, cwd=cwd,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# `ran()`: the package modules whose code has run; a module bound lazily
# that has not run yet is still an `importlib.util._LazyModule`
_RAN = (
    "import importlib.util, json, sys\n"
    "def ran():\n"
    "    return sorted(\n"
    "        name.split('.', 1)[1] for name, module in list(sys.modules.items())\n"
    "        if name.startswith('hermflow.') and type(module) is not importlib.util._LazyModule\n"
    "    )\n"
)


def test_cli_import_keeps_what_the_benchmark_tracer_reads():
    # pins what bench/tracer.py reads right after `import hermflow.cli`:
    # every module of its LAYERS in sys.modules and grid._CACHE a dict; and
    # that import stays cheap: it runs only `cli`, `errors` and the binder,
    # numpy bound but not run, with the 48 exports
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    ]
    script = _RAN + (
        "import hermflow, hermflow.cli\n"
        "print(json.dumps({\n"
        "    'ran': ran(),\n"
        "    'missing': [l for l in sys.argv[1:] if 'hermflow.' + l not in sys.modules],\n"
        "    'cache': type(sys.modules['hermflow.grid']._CACHE).__name__,\n"
        "    'numpy_ran': 'numpy._core' in sys.modules or 'numpy.core' in sys.modules,\n"
        "    'exports': len(hermflow.__all__),\n"
        "    'unresolved': [n for n in hermflow.__all__ if not hasattr(hermflow, n)],\n"
        "}))\n"
    )
    assert len(layers) == 9
    assert _fresh(script, *layers) == {
        "ran": ["_lazy", "cli", "errors"], "missing": [], "cache": "dict", "numpy_ran": False,
        "exports": 48, "unresolved": [],
    }


def test_lazy_layers_behave_like_imports():
    # `import hermflow` runs no layer, yet each one is in sys.modules and on
    # the package, and every way of importing a layer or reaching an export
    # runs it; `dir` lists the exports, and an unknown name is refused by name
    script = _RAN + (
        "import hermflow\n"
        "first = ran()\n"
        "bound = sorted(n.split('.', 1)[1] for n in sys.modules if n.startswith('hermflow.'))\n"
        "import hermflow.grid\n"
        "n = hermflow.grid.GridSpec(8.0, 16).n\n"
        "from hermflow import dynamics\n"
        "try:\n"
        "    hermflow.no_such_name\n"
        "    unknown = None\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps({\n"
        "    'first': first,\n"
        "    'bound': bound,\n"
        "    'on_package': hermflow.grid is sys.modules['hermflow.grid'],\n"
        "    'n': n,\n"
        "    'zero_type': dynamics.ZeroType is hermflow.ZeroType,\n"
        "    'unlisted': sorted(set(hermflow.__all__) - set(dir(hermflow))),\n"
        "    'unknown': unknown,\n"
        "    'ran': ran(),\n"
        "}))\n"
    )
    got = _fresh(script)
    layers = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "_lazy", "cli"))
    assert got["first"] == ["_lazy"]
    assert got["bound"] == sorted(["_lazy", *layers])
    assert got["on_package"] and got["n"] == 16 and got["zero_type"]
    assert got["unlisted"] == []
    assert got["unknown"] is not None and "no_such_name" in got["unknown"]
    assert "grid" in got["ran"] and "dynamics" in got["ran"] and "cli" not in got["ran"]


def _benchmark_checks() -> dict:
    """Check id -> hermflow argv of every check of bench/workloads.py."""
    spec = importlib.util.spec_from_file_location("_bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return {c.id: list(c.argv) for make in module.WORKLOADS.values() for c in make(0, 2)}


_CHECKS = _benchmark_checks()
_CORE = {"multiindex", "polynomial", "moments", "operators", "rational_linalg", "solenoidal"}
_ALL = _CORE | {"kernel", "grid", "dynamics"}
# check id -> the layers its command runs besides `cli`, `errors` and the
# binder; each command loads only what it uses
_RUNS = {
    "basis": _CORE - {"solenoidal", "rational_linalg"},
    "eig-check": _CORE - {"solenoidal", "rational_linalg"},
    "biortho": _CORE - {"solenoidal", "rational_linalg"},
    "solenoidal": _CORE,
    "wkbj": {"kernel"},
    "nodal": _ALL - {"grid", "kernel"},
    "classify": {"dynamics", "polynomial", "multiindex"},
    "d-tensor": _ALL - {"dynamics", "kernel"},
    "d-tensor-K2": _ALL - {"dynamics", "kernel"},
    "evolve": _ALL,
    "evolve-reuse": _ALL,
    "verify-m1": _ALL - {"kernel"},
    "verify-m2": _ALL,
}


@pytest.mark.parametrize("check", list(_CHECKS))
def test_each_benchmark_command_runs_only_the_layers_it_uses(tmp_path, check):
    argv = _CHECKS[check]
    if "--tensor" in argv:
        # the tensor the benchmark's d-tensor-K2 check writes beside it
        from hermflow import cli

        assert cli.run(_CHECKS["d-tensor-K2"] + ["--outdir", str(tmp_path / "d-tensor-K2")]) == 0
    script = _RAN + (
        "import contextlib, io\n"
        "from hermflow import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.run(sys.argv[1:])\n"
        "print(json.dumps([code, ran()]))\n"
    )
    code, ran = _fresh(script, *argv, "--outdir", "out", cwd=tmp_path)
    assert code == 0
    assert set(ran) == _RUNS[check] | {"_lazy", "cli", "errors"}
