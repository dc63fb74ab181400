"""Span tracing of the hermflow layers, applied from outside the package.

`install` wraps the public functions of every layer module (and a few
`Polynomial` methods plus `scipy.integrate.solve_ivp`) and rebinds the
wrapped name in every hermflow module that imported it, so calls made
through `from .grid import to_grid` are traced as well. Nothing under
`src/` is edited. Each wrapped call records one span: name, start, end,
parent span and an optional measured quantity (bytes transformed, radii
tabulated, right-hand-side evaluations, or the rref input itself).

Run as a script, this file traces one CLI invocation in a fresh process:

    python bench/tracer.py SPANS.json -- <hermflow argv...>

It imports `hermflow.cli` inside an `import` span, installs the wrappers,
calls `cli.run(argv)` (which prints the usual summary line on stdout) and,
when the check ends, writes the spans and the `grid._CACHE` footprint to
SPANS.json. It exits with the CLI's exit code.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

# The package modules traced as layers. `multiindex` is too cheap per call
# to carry a span of its own; its time lands in its callers' self time.
LAYERS = (
    "cli",
    "dynamics",
    "grid",
    "kernel",
    "solenoidal",
    "operators",
    "moments",
    "polynomial",
    "rational_linalg",
)

# Polynomial methods traced under the polynomial layer (span name suffix).
POLY_METHODS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "derive": "derive",
    "evaluate_grid": "evaluate_grid",
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    info: object = None


class Tracer:
    """Collects spans in memory. Safe to call from worker threads: a span
    opened on a thread with no open span of its own is parented to the
    innermost open span of the thread that created the tracer (the thread
    that submitted the work)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> List[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _enter(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._home
            parent = home[-1] if home else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        """`fn` traced as span `name`; `measure(args, kwargs, result)` fills
        the span's info."""
        clock = self.clock
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._enter()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                # a call that raises still took its time: keep its span
                stack.pop()
                spans.append(Span(sid, name, t0, clock(), parent))
                raise
            t1 = clock()
            stack.pop()
            info = measure(args, kwargs, out) if measure else None
            spans.append(Span(sid, name, t0, t1, parent, info))
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        stack, sid, parent = self._enter()
        t0 = self.clock()
        try:
            yield
        finally:
            t1 = self.clock()
            stack.pop()
            self.spans.append(Span(sid, name, t0, t1, parent))


# -- self time -------------------------------------------------------------------


def _covered(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.
    Children running concurrently on worker threads overlap; their union is
    what is subtracted, so self time is never negative."""
    spans = list(spans)
    kids: Dict[int, List[tuple]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(kids.get(s.id, []), s.start, s.end)
        for s in spans
    }


# -- installing the wrappers -----------------------------------------------------


def _fft_bytes(args, kwargs, out) -> int:
    # computed bytes: one complex128 value per lattice point transformed
    return int(out.size) * 16


def _rref_key(args, kwargs, out):
    A = args[0] if args else kwargs["A"]
    return tuple(tuple(row) for row in A)


MEASURES: Dict[str, Callable] = {
    "grid.to_grid": _fft_bytes,
    "grid.to_spectral": _fft_bytes,
    "rational_linalg.rref": _rref_key,
    "kernel.kernel_values": lambda args, kwargs, out: int(len(out.radii)),
}


def _public_functions(mod) -> Dict[str, Callable]:
    return {
        name: obj
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == mod.__name__
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and rebind them wherever the
    hermflow modules refer to them. `hermflow.cli` must be imported."""
    import scipy.integrate

    mods = {layer: sys.modules[f"hermflow.{layer}"] for layer in LAYERS}
    wrapped: Dict[Callable, Callable] = {}
    for layer, mod in mods.items():
        for name, fn in _public_functions(mod).items():
            span = f"{layer}.{name}"
            wrapped[fn] = tracer.wrap(span, fn, MEASURES.get(span))
    for modname, mod in list(sys.modules.items()):
        if modname != "hermflow" and not modname.startswith("hermflow."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])

    Polynomial = mods["polynomial"].Polynomial
    for meth, short in POLY_METHODS.items():
        setattr(Polynomial, meth, tracer.wrap(f"polynomial.{short}", getattr(Polynomial, meth)))

    # nse_galerkin imports solve_ivp at call time, so patching the scipy
    # attribute is enough to reach it
    scipy.integrate.solve_ivp = tracer.wrap(
        "dynamics.solve_ivp",
        scipy.integrate.solve_ivp,
        lambda args, kwargs, out: int(out.nfev),
    )


def cache_bytes() -> int:
    grid = sys.modules["hermflow.grid"]
    return int(sum(a.nbytes for a in grid._CACHE.values()))


def dump(tracer: Tracer, path: str, **extra) -> None:
    """Write the spans as JSON; an rref input becomes the index of the first
    equal input seen, so distinct inputs can be counted later."""
    distinct: Dict[tuple, int] = {}
    rows = []
    for s in tracer.spans:
        info = s.info
        if isinstance(info, tuple):
            info = distinct.setdefault(info, len(distinct))
        rows.append([s.id, s.name, s.start, s.end, s.parent, info])
    with open(path, "w") as fh:
        json.dump({"spans": rows, **extra}, fh)


def load_spans(rows: Sequence[list]) -> List[Span]:
    return [Span(*row) for row in rows]


def main(argv: Sequence[str]) -> int:
    out_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <hermflow argv...>")
    tracer = Tracer()
    with tracer.span("import"):
        import hermflow.cli as cli
    install(tracer)
    rc = 1
    try:
        rc = cli.run(cli_argv)
    finally:
        sys.stdout.flush()
        dump(tracer, out_path, rc=rc, cache_bytes=cache_bytes())
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
