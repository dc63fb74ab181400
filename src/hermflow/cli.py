"""Batch command-line entry point.

Every subcommand declares its help, its parameters and its handler once,
in `_COMMANDS`: the flags, the config-file checks and the echo all come
from that table. A run resolves the parameters in layers: built-in
defaults, then a flat JSON config file (--config), then explicit flags,
and checks every value against its declared type and choices. The
resolved, typed configuration is echoed in the summary line and inside
every JSON artifact, so a run is reproducible from its config alone;
execution plumbing (worker count, output directory) is excluded from the
echo so it cannot change artifact bytes. Floats are serialized with repr (shortest
round-trip form), keys are sorted, and nothing time- or path-dependent is
written, which makes artifacts byte-identical across runs and worker
counts.

A handler computes its summary and its artifacts and returns them; it
writes nothing. `run` writes the artifacts only after the handler has
returned, so a run that exits nonzero leaves no artifact, except when
stdout is closed under the summary line, which follows the artifacts.

Exit codes: 0 success, 2 validation failure, 3 numerical non-convergence,
64 usage errors (unknown flags, bad values). The output directory is the
--outdir flag if given, else $HERMFLOW_OUTDIR, else the config file value,
else the working directory. A single-line JSON summary goes to stdout;
each entry carries "schema": "hermflow/1".
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

# the layers by module: each loads at its first use (`._lazy`), so a
# command runs only the layers it uses
from . import dynamics, grid, kernel, multiindex, operators, polynomial, solenoidal
from ._lazy import np
from .errors import NonConvergenceError, ValidationError, check_fits

SCHEMA = "hermflow/1"

# model name -> operator order m; the order alone sets the linear rates, and
# "nse" adds the quadratic couplings (evolve only: nodal runs the exact flow)
_MODEL_ORDER = {"stokes": 1, "nse": 1, "burnett": 2}


@dataclass(frozen=True)
class Param:
    """One command parameter, declared once for its flag, its config-file
    key, the value its handler reads and its echo.

    `type` is the type of the resolved value: int, float, bool or str. A
    default of None makes the parameter optional (JSON null is accepted); a
    list default makes it a list parameter (a repeatable flag; a scalar or a
    list in a config file). A bool flag switches away from the default:
    `--name` when it is False, `--no-name` when it is True. `echo=False`
    marks execution plumbing, which stays out of the echo so it cannot
    change artifact bytes.
    """

    name: str
    type: type
    default: object
    help: Optional[str] = None
    choices: Tuple[object, ...] = ()
    echo: bool = True


_CONFIG = Param("config", str, None, "flat JSON config file; flags override it")
_COMMON = (
    Param("outdir", str, ".", "artifact directory (HERMFLOW_OUTDIR overrides the default)", echo=False),
)
# only verify reads it; d-tensor and evolve accept it unread
_WORKERS = Param("workers", int, None, "worker cap (default: available cores)", echo=False)
# only d-tensor (its projector test field), evolve and nodal (demo:small) draw
# random numbers, so only they take a seed
_SEED = Param("seed", int, 0, "seed of demo:small and of the projector test field")


def _json_default(x):
    """The JSON form of what `json.dumps` cannot write itself: a Fraction as
    {"num", "den"}, numpy scalars and arrays as Python numbers and lists.
    Only an object of a numpy type reaches `np`, so writing Fractions never
    loads numpy."""
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if type(x).__module__.split(".")[0] == "numpy":
        if isinstance(x, np.integer):
            return int(x)
        if isinstance(x, np.bool_):
            return bool(x)
        if isinstance(x, np.ndarray):
            return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _workers(cfg: dict) -> int:
    return cfg["workers"] or os.cpu_count() or 1


def _cloud_csv(cloud: np.ndarray) -> str:
    """An (n, 3) point cloud as CSV, every coordinate in its `repr`. Most
    coordinates are grid nodes, so each distinct value (by its bits, which
    keeps -0.0 apart from 0.0) is formatted once and the rows are filled
    in one pass."""
    cloud = np.asarray(cloud, float)
    bits, where = np.unique(cloud.ravel().view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return "x,y,z\n" + ("%s,%s,%s\n" * len(cloud)) % tuple(text[where].tolist())


# -- initial-data descriptors ----------------------------------------------------


def _nodal_demo_coeffs(cb: solenoidal.CompositeBasis) -> Dict[Tuple[int, int], Fraction]:
    """Level-1 rotation plus half of a divergence-free level-3 field whose
    second component bends the ambient zero plane, over the m=1 levels 0..3."""
    w = polynomial.VectorPolyField(
        [
            polynomial.Polynomial(3, {(0, 1, 0): Fraction(2), (2, 1, 0): Fraction(-1)}),
            polynomial.Polynomial(3, {(1, 2, 0): Fraction(1), (1, 0, 0): Fraction(-2)}),
            polynomial.Polynomial.zero(3),
        ]
    )
    u0 = cb.blocks[1].fields[0] + w.scale(Fraction(1, 2))
    e = dynamics.expand(u0, cb)
    return {k: v for k, v in e.coeffs.items() if v != 0}


_Bases = Callable[[int], "solenoidal.CompositeBasis"]


def _bases(m: int) -> _Bases:
    """K -> composite_basis(m, K), each built once within a run, so the
    demo data and the command share their basis."""
    return lru_cache(maxsize=None)(lambda K: solenoidal.composite_basis(m, K))


def _parse_data(desc: str, m: int, K_flag: Optional[int], seed: int, bases: _Bases):
    """Decode an initial-data descriptor into (coeffs, minimal level K).

    Forms: "l1:0=1,l3:10=0.5" (explicit labels), "demo:nodal",
    "demo:small" (seeded generic data over all labels up to K), or
    "file:path" pointing at a JSON object with a "coeffs" mapping. The demo
    data take their basis from `bases`.
    """
    try:
        return _parse_data_inner(desc, m, K_flag, seed, bases)
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"bad data descriptor {desc!r}: {exc}") from exc


def _parse_data_inner(desc: str, m: int, K_flag: Optional[int], seed: int, bases: _Bases):
    desc = desc.strip()
    if desc.startswith("demo:"):
        name = desc[5:]
        if name == "nodal":
            if m != 1:
                raise ValidationError("demo:nodal is level-1 + level-3 data for m=1")
            coeffs = _nodal_demo_coeffs(bases(3))
            return coeffs, max(k for k, _ in coeffs)
        if name == "small":
            K = 2 if K_flag is None else K_flag
            cb = bases(K)
            rng = np.random.default_rng(seed)
            vals = 0.02 * rng.standard_normal(cb.count)
            return {lab: float(v) for lab, v in zip(cb.labels, vals)}, K
        raise ValidationError(f"unknown demo dataset {name!r}")
    if desc.startswith("file:"):
        path = desc[5:]
        with open(path) as fh:
            doc = json.load(fh)
        raw = doc.get("coeffs", doc) if isinstance(doc, dict) else doc
        if not isinstance(raw, dict):
            raise ValidationError(f"data file {path} holds no coefficient object")
        coeffs = {}
        for key, val in raw.items():
            if type(val) not in (int, float):
                raise ValidationError(f"data file {path}: coefficient {key!r} is not a number")
            _put_coeff(coeffs, key, val, f"data file {path}")
        if not coeffs:
            raise ValidationError(f"data file {path} holds no coefficients")
        return coeffs, max(k for k, _ in coeffs)
    if "=" in desc:
        coeffs = {}
        for item in desc.split(","):
            key, val = item.split("=")
            _put_coeff(coeffs, key, val, f"data descriptor {desc!r}")
        return coeffs, max(k for k, _ in coeffs)
    raise ValidationError(f"unrecognized data descriptor {desc!r}")


def _put_coeff(coeffs: dict, key: str, val, where: str) -> None:
    """coeffs[(k, i)] = float(val) for the label `key` (`lk:i` or `k:i`),
    refusing a label given twice and an integer beyond the float range."""
    lev, idx = key.strip().lstrip("l").split(":")
    label = (int(lev), int(idx))
    if label in coeffs:
        raise ValidationError(f"{where}: label l{label[0]}:{label[1]} is given twice")
    try:
        coeffs[label] = float(val)
    except OverflowError:
        raise ValidationError(f"{where}: coefficient {key!r} is beyond the float range") from None


def _zero_tensor(cb, m: int, spec: grid.GridSpec) -> grid.InteractionTensor:
    zero = np.zeros((cb.count,) * 3)
    return grid.InteractionTensor(
        m=m, N=3, spec=spec, labels=list(cb.labels), values=zero, errors=zero.copy()
    )


_TENSOR_AXES = ("alpha", "gamma", "beta")


def _is_label(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v)


def _triple(labels, idx) -> str:
    return ", ".join(f"{key} {list(labels[i])}" for key, i in zip(_TENSOR_AXES, idx))


def _grid_text(v) -> str:
    """A grid dict as `L=6.0, n=24` (`none` when empty); anything else as is."""
    if isinstance(v, dict):
        return ", ".join(f"{k}={x!r}" for k, x in v.items()) or "none"
    return str(v)


def _load_tensor(path: str) -> grid.InteractionTensor:
    with open(path) as fh:
        doc = json.load(fh)
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("entries"), list)
        and isinstance(doc.get("grid"), dict)
        and type(doc["grid"].get("L")) in (int, float)
        and type(doc["grid"].get("n")) is int
        and type(doc.get("m")) is int
        and type(doc.get("N")) is int
    ):
        raise ValidationError(f"{path} is not an interaction-tensor artifact")
    for e in doc["entries"]:
        if not (
            isinstance(e, dict)
            and all(_is_label(e.get(key)) for key in _TENSOR_AXES)
            and all(type(e.get(key)) in (int, float) for key in ("value", "error"))
        ):
            raise ValidationError(f"{path}: malformed tensor entry {e!r}")

    # the alpha labels in first-seen order index all three axes
    labels = list(dict.fromkeys(tuple(e["alpha"]) for e in doc["entries"]))
    index = {lab: i for i, lab in enumerate(labels)}
    for e in doc["entries"]:
        for key in _TENSOR_AXES[1:]:
            if tuple(e[key]) not in index:
                raise ValidationError(f"{path}: {key} label {e[key]} is not an alpha label")
    values = np.zeros((len(labels),) * 3)
    errors = np.zeros_like(values)
    seen = set()
    for e in doc["entries"]:
        idx = tuple(index[tuple(e[key])] for key in _TENSOR_AXES)
        if idx in seen:
            raise ValidationError(f"{path}: repeated entry for {_triple(labels, idx)}")
        seen.add(idx)
        values[idx] = e["value"]
        errors[idx] = e["error"]
    if len(seen) < values.size:
        missing = next(idx for idx in np.ndindex(values.shape) if idx not in seen)
        raise ValidationError(f"{path}: no entry for {_triple(labels, missing)}")
    box = doc["grid"]
    # other grid keys, such as the "dealias" flag of older files, are ignored
    spec = grid.GridSpec(L=float(box["L"]), n=box["n"])
    return grid.InteractionTensor(
        m=doc["m"], N=doc["N"], spec=spec, labels=labels, values=values, errors=errors,
        refined=doc.get("refined", {}),
    )


# -- subcommand handlers ----------------------------------------------------------
#
# A handler takes the resolved config and returns (summary, artifacts):
# the summary fields of the stdout line and, in writing order, its files,
# each (name, CSV text) or (name, JSON kind, JSON body).


def _levels(cfg: dict) -> range:
    """Levels 0..max_level; a negative max_level would check nothing."""
    if cfg["max_level"] < 0:
        raise ValidationError(f"max_level must be >= 0, got {cfg['max_level']}")
    return range(cfg["max_level"] + 1)


def _cmd_basis(cfg: dict):
    params = operators.OperatorParams(m=cfg["m"], N=cfg["N"])
    levels = []
    formula_ok = True
    total = 0
    for k in _levels(cfg):
        pairs = operators.level_enumerate(k, params)
        expected = math.comb(k + params.N - 1, params.N - 1)
        formula_ok = formula_ok and len(pairs) == expected
        total += len(pairs)
        levels.append(
            {
                "level": k,
                "count": len(pairs),
                "expected_count": expected,
                "members": [ep.to_json_dict() for ep in pairs],
            }
        )
    summary = {"levels": cfg["max_level"] + 1, "total": total, "count_formula_ok": formula_ok}
    return summary, [("basis.json", "eigenfunction-basis", {"levels": levels})]


def _cmd_eig_check(cfg: dict):
    ms = cfg["m"]
    results = []
    checked = 0
    for m in ms:
        params = operators.OperatorParams(m=m, N=cfg["N"])
        for k in _levels(cfg):
            for ep in operators.level_enumerate(k, params):
                lhs = operators.apply_B_star(ep.psi_star, params)
                if lhs != ep.psi_star.scale(ep.lam):
                    raise ValidationError(
                        f"eigen-relation failed at m={m}, beta={ep.beta}"
                    )
                checked += 1
        results.append({"m": m, "max_level": cfg["max_level"], "pass": True})
    summary = {"checked": checked, "all_pass": True, "m": ms}
    return summary, [("eig_check.json", "eigen-check", {"results": results})]


def _cmd_biortho(cfg: dict):
    ms = cfg["m"]
    results = []
    checked = 0
    for m in ms:
        params = operators.OperatorParams(m=m, N=cfg["N"])
        eps = [ep for k in _levels(cfg) for ep in operators.level_enumerate(k, params)]
        for ea in eps:
            fact = math.prod(math.factorial(b) for b in ea.beta)
            for eb in eps:
                want = Fraction(fact) if ea.beta == eb.beta else Fraction(0)
                if operators.pairing(ea.psi_star, eb.beta, params) != want:
                    raise ValidationError(
                        f"pairing failed at m={m}, beta={ea.beta}, gamma={eb.beta}"
                    )
                checked += 1
        results.append({"m": m, "pairs": len(eps) ** 2, "pass": True})
    summary = {"checked": checked, "all_pass": True, "m": ms}
    return summary, [("biortho.json", "biorthogonality", {"results": results})]


def _cmd_solenoidal(cfg: dict):
    kind = cfg["kind"]
    blocks = []
    counts: Dict[str, int] = {}
    if kind == "composite":
        for m in cfg["m"]:
            cb = solenoidal.composite_basis(m, cfg["K"], cfg["N"])
            for blk in cb.blocks:
                counts[f"m{m}:k{blk.level}"] = blk.count
            blocks.append({"m": m, "K": cfg["K"], "counts": [b.count for b in cb.blocks]})
    else:
        # constructing a basis validates its fields; every catalogued level
        # is listed, so a failing one raises instead of ending the listing
        if kind == "fixture":
            for m in cfg["m"]:
                if not solenoidal.catalog_levels(m):
                    raise ValidationError(f"the fixture catalogue holds no levels for m={m}")
            bases = [
                solenoidal.fixture_basis(m, k, N=cfg["N"])
                for m in cfg["m"]
                for k in solenoidal.catalog_levels(m)
            ]
        else:
            bases = [
                solenoidal.divfree_kernel(cfg["level"], operators.OperatorParams(m=m, N=cfg["N"]))
                for m in cfg["m"]
            ]
        for b in bases:
            m, k = b.params.m, b.level
            if kind == "fixture" and m == 1 and k in (1, 2) and b.count != k * (k + 2):
                raise ValidationError(f"fixture count at m=1, k={k} is off")
            counts[f"m{m}:k{k}"] = b.count
            blocks.append(
                {
                    "m": m,
                    "level": k,
                    "count": b.count,
                    "fields": [[c.to_json_dict() for c in v.components] for v in b.fields],
                }
            )
    summary = {"kind": kind, "counts": counts, "all_pass": True}
    return summary, [("solenoidal.json", f"solenoidal-{kind}", {"blocks": blocks})]


# float64 values per radius of `kernel` and `wkbj --fit`, rounded up
# (tracemalloc per radius: 17.1 for `kernel`, with its CSV text, and 10.8
# for `wkbj --fit`): the radii, the two Gauss sums, the values and the
# mass check's transients
_RADIUS_VALUES = 18


def _radii(cfg: dict) -> np.ndarray:
    """The uniform radial grid 0, dr, 2 dr, ... up to r_max, refused when
    the table would not fit in physical memory."""
    r_max, dr = cfg["r_max"], cfg["dr"]
    if not dr > 0.0:
        raise ValidationError(f"radial step dr must be positive, got {dr!r}")
    what = f"a radial grid up to r_max={r_max!r} in steps dr={dr!r}"
    check_fits(_RADIUS_VALUES * (r_max + 1e-9) / dr, what)
    return np.arange(0.0, r_max + 1e-9, dr)


_KERNEL_MASS_TOL = 1e-6  # README criterion 5: a table must carry the unit mass


def _cmd_kernel(cfg: dict):
    m = cfg["m"]
    table = kernel.kernel_values(m, radii=_radii(cfg), tol=cfg["tol"])
    if not table.mass_error <= _KERNEL_MASS_TOL:
        raise ValidationError(
            f"kernel table up to r_max={cfg['r_max']!r} misses mass: mass error "
            f"{table.mass_error!r} exceeds {_KERNEL_MASS_TOL!r}; raise r_max"
        )
    summary = {
        "m": m,
        "n_radii": len(table.radii),
        "f0": float(table.values[0]),
        "mass_error": table.mass_error,
        "quad_error": table.quad_error,
    }
    return summary, [(f"kernel_m{m}.csv", table.to_csv())]


def _cmd_wkbj(cfg: dict):
    consts = kernel.wkbj_constants(cfg["m"], cfg["N"])
    payload = consts.to_json_dict()
    summary = {
        "m": consts.m,
        "alpha": float(consts.alpha),
        "d0": consts.d0,
        "b0": consts.b0,
        "delta0": float(consts.delta0),
        "root_residual": consts.root_residual,
    }
    if cfg["fit"]:
        table = kernel.kernel_values(consts.m, consts.N, radii=_radii(cfg))
        fit = kernel.envelope_fit(table, consts)
        payload["fit"] = fit
        payload["kernel_mass_error"] = table.mass_error
        summary.update(
            {
                "d0_rel_dev": fit["d0_rel_dev"],
                "alpha_rel_dev": fit["alpha_rel_dev"],
                "kernel_mass_error": table.mass_error,
            }
        )
    return summary, [("wkbj.json", "wkbj-constants", payload)]


def _random_poly_field(rng: np.random.Generator, deg: int = 3) -> polynomial.VectorPolyField:
    comps = []
    for _ in range(3):
        terms = {}
        for k in range(deg + 1):
            for beta in multiindex.enumerate_level(k, 3):
                terms[beta] = Fraction(int(rng.integers(-8, 9)), 8)
        comps.append(polynomial.Polynomial(3, terms))
    return polynomial.VectorPolyField(comps)


def _projector_diagnostics(spec: grid.GridSpec, m: int, seed: int) -> dict:
    """Idempotence and divergence of the Leray projector where the tensor
    applies it, on the frequency lattice, for a seeded random field times
    the kernel: ratios of lattice norms, which by Parseval are the ratios
    of the grid norms. No FFT runs."""
    scale, idempotence, divergence = grid.projector_norms(
        _random_poly_field(np.random.default_rng(seed)), spec, m
    )
    return {"idempotence_rel": idempotence / scale, "divergence_rel": divergence / scale}


def _cmd_d_tensor(cfg: dict):
    m, K = cfg["m"], cfg["K"]
    spec = grid.GridSpec(L=cfg["L"], n=cfg["n"])
    cb = solenoidal.composite_basis(m, K)
    tensor = grid.interaction_tensor(cb, spec)
    flagged = tensor.flagged()
    payload = {**tensor.to_json_dict(), "flagged": [list(t) for t in flagged]}
    summary = {
        "labels": len(tensor.labels),
        "max_abs": float(np.max(np.abs(tensor.values))),
        "max_error": tensor.max_error(),
        "flagged": len(flagged),
    }
    rot = [i for i, (k, _) in enumerate(tensor.labels) if k == 1]
    if m == 1 and rot:
        summary["rotation_self_max"] = float(
            max(np.max(np.abs(tensor.values[a, a, :])) for a in rot)
        )
    summary["projector"] = _projector_diagnostics(spec, m, cfg["seed"])
    return summary, [("tensor.json", "interaction-tensor", payload)]


def _initial_data(cfg: dict, m: int) -> dynamics.Expansion:
    """The `--data` of `evolve` and `nodal` over the composite basis of
    level `--K` (the data's own level when unset), refused when the data
    reach above that level or name a label outside its basis."""
    bases = _bases(m)
    coeffs, k_needed = _parse_data(cfg["data"], m, cfg["K"], cfg["seed"], bases)
    K = k_needed if cfg["K"] is None else cfg["K"]
    if K < k_needed:
        raise ValidationError(f"data reaches level {k_needed} but K={K}")
    cb = bases(K)
    labels = set(cb.labels)
    for lab in coeffs:
        if lab not in labels:
            raise ValidationError(f"coefficient label {lab} outside the level-{K} basis")
    return dynamics.Expansion(cb, coeffs)


def _time_span(end: float, steps: int, labels: int, name: str = "tau") -> np.ndarray:
    """`steps` output times from 0 to `end` of a trajectory over `labels`
    basis labels."""
    if steps < 3:
        raise ValidationError(f"steps must be at least 3, got {steps}")
    if not end > 0.0:
        raise ValidationError(f"{name} must be positive, got {end!r}")
    dynamics.check_output_times(steps, labels, f"a trajectory of steps={steps} output times")
    return np.linspace(0.0, end, steps)


def _cmd_evolve(cfg: dict):
    model = cfg["model"]
    m = _MODEL_ORDER[model]
    e0 = _initial_data(cfg, m)
    cb = e0.basis
    taus = _time_span(cfg["tau"], cfg["steps"], cb.count)
    summary: Dict[str, object] = {"model": model, "labels": cb.count, "tau_end": cfg["tau"]}
    if model == "nse":
        spec = grid.GridSpec(L=cfg["L"], n=cfg["n"])
        if cfg["tensor"]:
            tensor = _load_tensor(cfg["tensor"])
            # a tensor of another order, dimension, grid or refinement grid
            # is not the one this run would compute
            for key, got, want in (
                ("m", tensor.m, m),
                ("N", tensor.N, 3),
                ("grid", tensor.spec.to_json_dict(), spec.to_json_dict()),
                ("refined", tensor.refined, spec.refined().to_json_dict()),
            ):
                if got != want:
                    raise ValidationError(
                        f"{cfg['tensor']}: {key} {_grid_text(got)} "
                        f"does not match this run's {_grid_text(want)}"
                    )
        else:
            tensor = grid.interaction_tensor(cb, spec)
        traj = dynamics.nse_galerkin(e0, tensor, cfg["tau"], rtol=cfg["rtol"], n_out=cfg["steps"])
        summary["duhamel_residual"] = traj.duhamel_residual
        summary["truncated"] = traj.diagnostic["truncated"]
        summary["integrator"] = traj.diagnostic["integrator"]
        if cfg["check_linear"]:
            lin = dynamics.nse_galerkin(
                e0, _zero_tensor(cb, m, spec), cfg["tau"], rtol=cfg["rtol"], n_out=cfg["steps"]
            )
            # against the exact flow at the times the run reached
            ref = dynamics.diagonal_trajectory(e0, lin.taus)
            summary["stokes_dev"] = float(np.max(np.abs(lin.C - ref.C)))
    else:
        traj = dynamics.diagonal_trajectory(e0, taus)
        summary["rates"] = {f"l{k}:{i}": v for (k, i), v in dynamics.rate_check(traj)["rates"].items()}
    # the diagonal flows are exact, so the fit may use the whole trajectory;
    # the Galerkin run keeps the default window that skips the transient
    window = None if model == "nse" else (float(taus[0]), float(taus[-1]))
    try:
        rep = dynamics.detect_resonance(traj, window=window)
    except ValidationError as exc:
        if not summary.get("truncated"):
            raise
        # too few samples because the integrator gave up, not because of the input
        raise NonConvergenceError(
            f"the Galerkin integrator stopped at tau_reached="
            f"{traj.diagnostic['tau_reached']!r} of {cfg['tau']!r}: "
            f"{traj.diagnostic['reason']} ({exc})"
        ) from exc
    summary["resonance_status"] = rep.status
    summary["envelope_ok"] = traj.envelope_check()["ok"]
    return summary, [
        ("trajectory.csv", traj.to_csv()),
        ("resonance.json", "resonance-report", rep.to_json_dict()),
    ]


def _cmd_nodal(cfg: dict):
    e0 = _initial_data(cfg, _MODEL_ORDER[cfg["model"]])
    cb, coeffs = e0.basis, e0.coeffs
    tau_list = [float(t) for t in cfg["taus"].split(",") if t.strip()]
    if not tau_list:
        raise ValidationError("no evaluation times given")
    bad = next((t for t in tau_list if not 0.0 <= t < math.inf), None)
    if bad is not None:
        # tau = 0 is t = -1, where the data are prescribed; nothing precedes it
        raise ValidationError(f"taus must be finite and non-negative, got {bad!r}")
    span = _time_span(max(tau_list), cfg["steps"], cb.count, "the largest of taus")
    R, cell = cfg["R"], cfg["cell"]

    kmin = min(k for k, _ in coeffs)
    ref_e = dynamics.Expansion(cb, {lab: c for lab, c in coeffs.items() if lab[0] == kmin})
    ref_clouds = dynamics.nodal_extract(ref_e, R=R, cell=cell)
    if cfg["component"] is None:
        comp = next(
            (i for i, c in enumerate(ref_clouds) if len(c)), None
        )
        if comp is None:
            raise ValidationError("reference zero set is empty in every component")
    else:
        comp = cfg["component"]
        if not 0 <= comp < 3:
            raise ValidationError(f"component {comp} is not 0, 1 or 2")
    ref_poly = ref_e.field_poly().components[comp]
    arts = [(f"nodal_ref_c{comp}.csv", _cloud_csv(ref_clouds[comp]))]

    compared = []
    for j, tau in enumerate(tau_list):
        state = dynamics.diagonal_flow(e0, tau)
        if not any(state.coeffs.values()):
            raise ValidationError(
                f"at taus entry {tau!r} the diagonal flow has underflowed every "
                "coefficient to 0.0, so there is no zero set to compare; use earlier times"
            )
        clouds = dynamics.nodal_extract(state, R=R, cell=cell)
        for c in range(3):
            arts.append((f"nodal_tau{j}_c{c}.csv", _cloud_csv(clouds[c])))
        poly = state.field_poly().components[comp]
        compared.append(dynamics.nodal_compare(clouds[comp], poly, ref_clouds[comp], ref_poly, R))
    distances = [c["distance"] for c in compared]

    traj = dynamics.diagonal_trajectory(e0, span)
    rep = dynamics.detect_resonance(traj, window=(float(span[0]), float(span[-1])))
    verdict = dynamics.unique_continuation_diagnostic(rep, distances)
    # `decreasing` goes to the summary line only
    decreasing = verdict.pop("decreasing")
    gap = rep.subdominant_gap
    arts.append(
        (
            "distances.json",
            "nodal-distances",
            {
                "component": comp,
                "taus": tau_list,
                "distances": distances,
                "outside_ball": [c["outside_ball"] for c in compared],
                "unresolved": [c["unresolved"] for c in compared],
                "nodal_rate": {
                    "taus": tau_list[-2:],
                    "slope": _log_slope(tau_list[-2:], distances[-2:]),
                    "expected": None if gap is None else -gap,
                },
                "resonance": rep.to_json_dict(),
                "diagnostic": verdict,
            },
        )
    )
    summary = {
        "component": comp,
        "distances": distances,
        "decreasing": decreasing,
        "final_distance": distances[-1],
        "resonance_status": rep.status,
        "verdict": verdict["verdict"],
    }
    return summary, arts


def _log_slope(taus: List[float], distances: List[float]) -> Optional[float]:
    """Slope of log distance against tau through two (tau, distance) points;
    None where it is undefined (one time, equal times or a zero distance)."""
    if len(taus) < 2 or taus[0] == taus[1] or min(distances) <= 0.0:
        return None
    return (math.log(distances[1]) - math.log(distances[0])) / (taus[1] - taus[0])


# the most characters of a `--terms` coefficient, and the largest magnitude
# of its decimal exponent: about three times the float range (1e308, 17
# digits), which Fraction parses in microseconds; its cost grows faster than
# the exponent (Fraction("1e10000000") takes seconds)
_MAX_COEFF_DIGITS = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")


def _coefficient(t: dict) -> Fraction:
    """The exact coefficient of a `--terms` entry, refused before any
    `Fraction` is built when its text or decimal exponent is far past the
    float range."""
    text = str(t["c"])
    if len(text) > _MAX_COEFF_DIGITS:
        raise ValidationError(
            f"a term's coefficient has {len(text)} characters, more than the bound of {_MAX_COEFF_DIGITS}"
        )
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1].replace("_", ""))) > _MAX_COEFF_DIGITS:
        raise ValidationError(
            f"term {t!r} has a coefficient whose decimal exponent exceeds {_MAX_COEFF_DIGITS} in magnitude"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValidationError(f"term {t!r} has a coefficient with a zero denominator") from None


def _terms_polynomial(terms: List[dict]) -> polynomial.Polynomial:
    """The exact polynomial sum_k c_k x^a_k t^b_k in (x1, x2, x3, t) of a
    `--terms` list, like terms summed."""
    summed: Dict[tuple, Fraction] = {}
    for t in terms:
        if not (isinstance(t, dict) and "x" in t and "c" in t):
            raise ValidationError(f"term {t!r} is not an object with keys 'x' and 'c'")
        ex, et = t["x"], t.get("t", 0)
        if not (isinstance(ex, list) and len(ex) == 3 and all(type(v) is int and v >= 0 for v in ex)):
            raise ValidationError(f"bad spatial exponents {ex!r}")
        if type(et) is not int or et < 0:
            raise ValidationError("temporal exponent must be an integer >= 0")
        key = (*ex, et)
        summed[key] = summed.get(key, 0) + _coefficient(t)
    if not summed:
        raise ValidationError("empty term list")
    return polynomial.Polynomial(4, summed)


def _classify(cfg: dict, terms: list):
    return dynamics.classify_zero(_terms_polynomial(terms), max_order=cfg["max_order"])


def _cmd_classify(cfg: dict):
    given = [name for name in ("suite", "terms", "terms_file") if cfg[name]]
    if len(given) > 1:
        raise ValidationError(f"give one of suite, terms and terms_file, not {' and '.join(given)}")
    if cfg["suite"]:
        if cfg["suite"] != "synthetic":
            raise ValidationError(f"unknown suite {cfg['suite']!r}")
        cases = []
        all_exact = True
        for M in range(1, 5):
            for Kt in range(1, 5):
                terms = [
                    {"x": [M, 0, 0], "t": 0, "c": 1},
                    {"x": [0, 0, 0], "t": Kt, "c": -((-1) ** Kt)},
                ]
                zt = _classify(cfg, terms)
                exact = (
                    zt.status == "classified"
                    and zt.M == M
                    and zt.K == Kt
                    and zt.gamma == Fraction(Kt, M)
                )
                all_exact = all_exact and exact
                cases.append({"M": M, "K": Kt, "result": zt.to_json_dict(), "exact": exact})
        if not all_exact:
            raise ValidationError("synthetic zero-type suite disagreed with closed forms")
        summary = {"cases": len(cases), "all_exact": True}
        return summary, [("classify_suite.json", "zero-type-suite", {"cases": cases})]

    if cfg["terms_file"]:
        with open(cfg["terms_file"]) as fh:
            terms = json.load(fh)
    elif cfg["terms"]:
        terms = json.loads(cfg["terms"])
    else:
        raise ValidationError("provide --terms, --terms-file, or --suite synthetic")
    if not isinstance(terms, list):
        raise ValidationError("terms must be a JSON list of monomials")
    zt = _classify(cfg, terms)
    summary = {"status": zt.status, "M": zt.M, "K": zt.K, "gamma": zt.gamma}
    return summary, [("zerotype.json", "zero-type", zt.to_json_dict())]


def _cmd_verify(cfg: dict):
    m = cfg["m"]
    levels = cfg["level"]
    idx = cfg["field_index"]
    # every level is checked before any is computed
    fields = []
    for k in levels:
        catalogued = solenoidal.fixture(m, k)
        if not 0 <= idx < len(catalogued):
            raise ValidationError(f"field index {idx} outside fixture level {k}")
        fields.append(catalogued[idx])
    results = []
    arts = []
    worst = 0.0
    truncated_any = False
    for k, field in zip(levels, fields):
        traj = dynamics.semigroup_verify(
            field,
            m,
            t_end=cfg["t_end"],
            L=cfg["L"],
            n_tau=cfg["n_tau"],
            workers=_workers(cfg),
        )
        rc = dynamics.rate_check(traj)
        worst = max(worst, rc["max_rel_err"])
        truncated_any = truncated_any or bool(traj.diagnostic.get("truncated", False))
        arts.append((f"verify_m{m}_l{k}.csv", traj.to_csv()))
        results.append(
            {
                "level": k,
                "field_index": idx,
                "n_tau": len(traj.taus),
                "max_rel_err": rc["max_rel_err"],
                "max_residual": max(traj.residuals),
                "residuals": traj.residuals,
                "overlap": traj.overlap,
                "rates": {f"l{a}:{b}": v for (a, b), v in rc["rates"].items()},
                "diagnostic": traj.diagnostic,
            }
        )
    arts.append((f"verify_m{m}.json", "semigroup-verify", {"results": results}))
    summary = {"m": m, "levels": levels, "max_rel_rate_err": worst, "truncated": truncated_any}
    return summary, arts


# command -> (help text, parameters after the common ones in flag order,
# handler), in the order the usage lists the commands
_COMMANDS: Dict[str, Tuple[str, Tuple[Param, ...], Callable]] = {
    "basis": (
        "enumerate eigenfunction levels with exact eigen data",
        (Param("m", int, 1), Param("N", int, 3), Param("max_level", int, 10)),
        _cmd_basis,
    ),
    "eig-check": (
        "verify the eigen-relation exactly up to a level",
        (Param("m", int, [1, 2, 3]), Param("N", int, 3), Param("max_level", int, 5)),
        _cmd_eig_check,
    ),
    "biortho": (
        "verify the dual pairing is beta! times identity",
        (Param("m", int, [1, 2]), Param("N", int, 3), Param("max_level", int, 4)),
        _cmd_biortho,
    ),
    "solenoidal": (
        "catalog and check divergence-free vector bases",
        (
            Param("m", int, [1, 2]),
            Param("N", int, 3),
            Param("kind", str, "fixture", choices=("fixture", "kernel", "composite")),
            Param("level", int, 3, "level for --kind kernel"),
            Param("K", int, 3, "truncation for --kind composite"),
        ),
        _cmd_solenoidal,
    ),
    "kernel": (
        "tabulate the radial kernel profile to CSV",
        (
            Param("m", int, 2),
            Param("r_max", float, 36.0),
            Param("dr", float, 0.02),
            Param("tol", float, 1e-12),
        ),
        _cmd_kernel,
    ),
    "wkbj": (
        "closed-form decay constants, optionally fit to the kernel",
        (
            Param("m", int, 2),
            Param("N", int, 3),
            Param("fit", bool, False, "tabulate the kernel and fit its envelope"),
            Param("r_max", float, 36.0),
            Param("dr", float, 0.02),
        ),
        _cmd_wkbj,
    ),
    "d-tensor": (
        "projected convection couplings of the composite basis",
        (
            Param("m", int, 1),
            Param("K", int, 1),
            Param("L", float, 8.0),
            Param("n", int, 64),
            _SEED,
            _WORKERS,
        ),
        _cmd_d_tensor,
    ),
    "evolve": (
        "coefficient dynamics: exact diagonal flows or Galerkin",
        (
            Param("model", str, "stokes", choices=tuple(_MODEL_ORDER)),
            Param("data", str, "l1:0=1", "l1:0=c,... | demo:nodal | demo:small | file:PATH"),
            Param("tau", float, 3.0),
            Param("steps", int, 41),
            Param("K", int, None),
            Param("rtol", float, 1e-9),
            Param("L", float, 8.0),
            Param("n", int, 64),
            Param("tensor", str, None, "interaction-tensor JSON to reuse"),
            Param("check_linear", bool, False, "also compare the zero-coupling run to the exact flow"),
            _SEED,
            _WORKERS,
        ),
        _cmd_evolve,
    ),
    "nodal": (
        "evolve data, extract zero sets, track distance to the ambient plane",
        (
            Param("model", str, "stokes", choices=tuple(k for k in _MODEL_ORDER if k != "nse")),
            Param("data", str, "demo:nodal"),
            Param("taus", str, "0,1,2,3,4", "comma-separated evaluation times"),
            Param("R", float, 2.0),
            Param("cell", float, 0.05),
            Param("component", int, None),
            Param("K", int, 3),
            Param("steps", int, 41),
            _SEED,
        ),
        _cmd_nodal,
    ),
    "classify": (
        "vanishing orders (M, K, gamma) of a space-time zero",
        (
            Param("terms", str, None, 'JSON list like [{"x":[2,0,0],"t":0,"c":1},...]'),
            Param("terms_file", str, None),
            Param("suite", str, None, "synthetic: sweep x^M - (-t)^K for M,K <= 4"),
            Param("max_order", int, 6),
        ),
        _cmd_classify,
    ),
    "verify": (
        "independent semigroup cross-check of the diagonal rates",
        (
            Param("m", int, 1),
            Param("level", int, [1]),
            Param("field_index", int, 0),
            Param("t_end", float, None),
            Param("L", float, 24.0),
            Param("n_tau", int, 31),
            _WORKERS,
        ),
        _cmd_verify,
    ),
}
_PARAMS: Dict[str, Dict[str, Param]] = {
    cmd: {p.name: p for p in _COMMON + params} for cmd, (_, params, _) in _COMMANDS.items()
}

# settings a command reads only when another setting has one value: command
# -> (the settings, the deciding setting, that value). Any value but its
# default is refused otherwise, so the echo never shows a check that did
# not run; the default echoes what a run without it computes.
_READ_ONLY_WITH: Dict[str, Tuple[Tuple[Tuple[str, ...], str, object], ...]] = {
    "evolve": (
        (("tensor", "check_linear", "rtol", "L", "n"), "model", "nse"),
        (("seed",), "data", "demo:small"),
    ),
    "nodal": ((("seed",), "data", "demo:small"),),
    "solenoidal": ((("level",), "kind", "kernel"), (("K",), "kind", "composite")),
    "wkbj": ((("r_max", "dr"), "fit", True),),
}


def _echo(cfg: dict, command: str) -> dict:
    """The resolved, typed parameters of a run, minus execution plumbing."""
    params = _PARAMS[command]
    return {"command": command, **{k: v for k, v in cfg.items() if params[k].echo}}


# -- argument parsing ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the conventional code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _add_flag(sp: argparse.ArgumentParser, p: Param) -> None:
    # flags default to SUPPRESS so that an absent flag leaves the config
    # file's value in place
    kw = {"dest": p.name, "default": argparse.SUPPRESS, "help": p.help}
    name = p.name.replace("_", "-")
    if p.type is bool:
        kw["action"] = "store_false" if p.default else "store_true"
        name = "no-" + name if p.default else name
    else:
        if p.type in (int, float):
            kw["type"] = p.type
        if p.choices:
            kw["choices"] = p.choices
        if isinstance(p.default, list):
            kw["action"] = "append"
    sp.add_argument("--" + name, **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hermflow", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, (help_text, params, _) in _COMMANDS.items():
        # no prefix matching: `verify --n` must not pass as `--n-tau`
        sp = subs.add_parser(command, help=help_text, allow_abbrev=False)
        for p in (_CONFIG, *_COMMON, *params):
            _add_flag(sp, p)
    return parser


_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _coerce_one(p: Param, v):
    if p.type is float and type(v) is int and abs(v) <= sys.float_info.max:
        v = float(v)
    if type(v) is not p.type or (p.type is float and not math.isfinite(v)):
        raise ValidationError(f"{p.name} must be {_TYPE_NAMES[p.type]}, got {v!r}")
    if p.choices and v not in p.choices:
        raise ValidationError(f"{p.name} must be one of {list(p.choices)}, got {v!r}")
    return v


def _coerce(p: Param, value):
    """Check a default, config-file or flag value against its declaration.
    The result is what the handler computes with and what the echo shows."""
    if value is None and p.default is None:
        return None
    if isinstance(p.default, list):
        return [_coerce_one(p, v) for v in (value if isinstance(value, list) else [value])]
    return _coerce_one(p, value)


def _resolve(command: str, ns: argparse.Namespace) -> dict:
    """Defaults, then the config file, then $HERMFLOW_OUTDIR, then flags."""
    params = _PARAMS[command]
    given = {k: v for k, v in vars(ns).items() if k != "command"}
    path = given.pop("config", None)
    raw = {}
    if path:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValidationError("config file must hold a flat JSON object")
        unknown = sorted(set(raw) - set(params))
        if unknown:
            raise ValidationError(f"unknown config keys: {unknown}")
    env = os.environ.get("HERMFLOW_OUTDIR")
    if env:
        raw["outdir"] = env
    raw.update(given)
    cfg = {name: _coerce(p, raw.get(name, p.default)) for name, p in params.items()}
    for names, key, value in _READ_ONLY_WITH.get(command, ()):
        got = cfg[key].strip() if isinstance(cfg[key], str) else cfg[key]
        if got != value:
            for name in names:
                if cfg[name] != params[name].default:
                    raise ValidationError(
                        f"{name} is read only with {key} {value}, and this run has {key} {got}"
                    )
    return cfg


# failure rows, first match wins: (exception types, exit code, error tag,
# exception attributes echoed in the summary line). ValueError and OSError
# are malformed user input: bad JSON, missing files, unparsable numbers.
_FAILURES = (
    ((ValidationError,), 2, "validation", ()),
    ((NonConvergenceError,), 3, "non-convergence", ("achieved",)),
    ((ValueError, OSError), 2, "validation", ()),
)
_FAILURE_TYPES = tuple(t for types, *_ in _FAILURES for t in types)


def run(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if not getattr(ns, "command", None):
        parser.error("a subcommand is required")
    try:
        cfg = _resolve(ns.command, ns)
        outdir = cfg["outdir"]
        # an unusable output directory fails before any work
        os.makedirs(outdir, exist_ok=True)
        summary, artifacts = _COMMANDS[ns.command][2](cfg)
        echo = _echo(cfg, ns.command)
        # the artifacts are written only once the handler has returned; a
        # JSON body is stamped with the schema, its kind and the echo
        for name, *content in artifacts:
            if len(content) == 2:
                kind, body = content
                payload = {"schema": SCHEMA, "kind": kind, "config": echo, **body}
                text = json.dumps(payload, sort_keys=True, indent=1, default=_json_default) + "\n"
            else:
                (text,) = content
            with open(os.path.join(outdir, name), "w") as fh:
                fh.write(text)
        summary["artifacts"] = [name for name, *_ in artifacts]
        line = {"schema": SCHEMA, "command": ns.command, "ok": True, "config": echo, **summary}
        # flushed here, so that a closed stdout raises inside this try
        print(json.dumps(line, sort_keys=True, default=_json_default), flush=True)
        return 0
    except _FAILURE_TYPES as exc:
        _, code, tag, extra = next(row for row in _FAILURES if isinstance(exc, row[0]))
        if isinstance(exc, BrokenPipeError):
            # stdout is gone: nothing more is written there, and its
            # buffered bytes go to devnull at exit instead of raising again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        else:
            line = {
                "schema": SCHEMA,
                "command": ns.command,
                "ok": False,
                "error": tag,
                "message": str(exc),
                **{key: getattr(exc, key) for key in extra},
            }
            print(json.dumps(line, sort_keys=True))
        print(f"hermflow {ns.command}: {exc}", file=sys.stderr)
        return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
