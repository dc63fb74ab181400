from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_keeps_what_the_benchmark_tracer_reads():
    # pins what bench/tracer.py reads right after `import hermflow.cli`:
    # every module of its LAYERS in sys.modules and grid._CACHE a dict; and
    # that import stays cheap, numpy bound but not run, with the 48 exports
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    ]
    script = (
        "import json, sys\n"
        "import hermflow, hermflow.cli\n"
        "print(json.dumps({\n"
        "    'missing': [l for l in sys.argv[1:] if 'hermflow.' + l not in sys.modules],\n"
        "    'cache': type(sys.modules['hermflow.grid']._CACHE).__name__,\n"
        "    'numpy_ran': 'numpy._core' in sys.modules or 'numpy.core' in sys.modules,\n"
        "    'exports': len(hermflow.__all__),\n"
        "    'unresolved': [n for n in hermflow.__all__ if not hasattr(hermflow, n)],\n"
        "}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *layers], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert len(layers) == 9
    assert json.loads(proc.stdout) == {
        "missing": [], "cache": "dict", "numpy_ran": False, "exports": 48, "unresolved": [],
    }
