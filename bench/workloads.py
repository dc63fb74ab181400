"""The benchmark's workloads: README verification checks, each one a fresh
`python -m hermflow.cli` process, run one after another by a single client.

Every check carries its README pass condition at the README's own
thresholds. `judge` reads a check's summary line (and, where the condition
needs it, its artifacts) and returns a `Verdict`: the conditions that
failed, the accuracy figures the trace reports, and each seed-independent
error as a share of its README bound (the `error_share` metric).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple


@dataclass
class Verdict:
    problems: List[str] = field(default_factory=list)
    shares: Dict[str, float] = field(default_factory=dict)
    figures: Dict[str, float] = field(default_factory=dict)

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def below(self, name: str, value: float, bound: float, strict: bool = True,
              seeded: bool = False) -> None:
        """README condition `value < bound` (or `<=`); a seed-independent
        value also enters `error_share` as value / bound."""
        ok = value < bound if strict else value <= bound
        self.require(ok, f"{name}={value!r} not {'<' if strict else '<='} {bound!r}")
        if not seeded:
            self.shares[name] = abs(value) / bound


@dataclass(frozen=True)
class Check:
    id: str  # metric name part and artifact directory
    argv: Tuple[str, ...]  # hermflow argv without --outdir
    gate: Callable[[dict, str, Verdict], None]  # (summary, pass dir, verdict)


# -- README pass conditions ---------------------------------------------------------


def _flag(key: str):
    def gate(s: dict, _: str, v: Verdict) -> None:
        v.require(s.get(key) is True, f"{key} is not true")

    return gate


def _solenoidal(s: dict, _: str, v: Verdict) -> None:
    v.require(s.get("ok") is True and s.get("all_pass") is True, "fixture validation failed")


def _wkbj(s: dict, _: str, v: Verdict) -> None:
    # criterion 5: closed-form constants, kernel mass, envelope fit
    closed = {
        "alpha": 4.0 / 3.0,
        "d0": 3.0 * 2.0 ** (-11.0 / 3.0),
        "b0": 3.0**1.5 * 2.0 ** (-11.0 / 3.0),
        "delta0": 7.0 / 3.0,
    }
    for key, want in closed.items():
        v.require(abs(s[key] - want) <= 1e-12, f"{key}={s[key]!r} is not the closed form")
    v.below("kernel_mass_error", s["kernel_mass_error"], 1e-6, strict=False)
    v.below("d0_rel_dev", s["d0_rel_dev"], 0.02)
    v.below("alpha_rel_dev", s["alpha_rel_dev"], 0.01)
    v.figures["fit_d0_rel_dev"] = s["d0_rel_dev"]


def _nodal(s: dict, _: str, v: Verdict) -> None:
    # criterion 9: five strictly decreasing distances, the last below 0.05
    d = s["distances"]
    v.require(len(d) == 5, f"{len(d)} distances, expected 5")
    v.require(all(b < a for a, b in zip(d, d[1:])), "distances not strictly decreasing")
    v.below("final_distance", d[-1], 0.05)
    v.require(s["verdict"] == "PASS", f"verdict {s['verdict']!r}")


def _levi_civita(a: int, g: int, b: int) -> int:
    return (a - g) * (g - b) * (b - a) // 2


def _d_tensor_k1(s: dict, pass_dir: str, v: Verdict) -> None:
    # criterion 6: the K=1 couplings are eps_{agb}/2 on the rotation fields
    # and zero elsewhere; nothing flagged; the projector holds on the grid
    with open(os.path.join(pass_dir, "d-tensor", "tensor.json")) as fh:
        tensor = json.load(fh)
    dev = 0.0
    for e in tensor["entries"]:
        (ka, a), (kg, g), (kb, b) = e["alpha"], e["gamma"], e["beta"]
        want = 0.5 * _levi_civita(a, g, b) if ka == kg == kb == 1 else 0.0
        dev = max(dev, abs(e["value"] - want))
    v.below("rotation_closed_form_dev", dev, 1e-8, strict=False)
    v.below("rotation_self_max", s["rotation_self_max"], 1e-8, strict=False)
    v.require(s["flagged"] == 0, f"{s['flagged']} entries flagged by refinement")
    # the refinement estimate that `flagged` compares with its 1e-3 tolerance
    v.below("refinement_max_error", s["max_error"], 1e-3, strict=False)
    # the projector test field is seeded, so these stay out of error_share
    proj = s["projector"]
    v.below("idempotence_rel", proj["idempotence_rel"], 1e-10, strict=False, seeded=True)
    v.below("divergence_rel", proj["divergence_rel"], 1e-8, strict=False, seeded=True)


def _d_tensor_k2(s: dict, _: str, v: Verdict) -> None:
    # no README criterion: the K=2 tensor that the reuse step reads back
    v.require(s["labels"] == 12, f"{s['labels']} labels, expected 12")
    v.figures["tensor_max_error"] = s["max_error"]


def _evolve(s: dict, _: str, v: Verdict) -> None:
    # criterion 11; both residuals depend on the seeded initial data
    v.require(s["truncated"] is False, "integration truncated")
    v.below("duhamel_residual", s["duhamel_residual"], 1e-6, strict=False, seeded=True)
    v.below("stokes_dev", s["stokes_dev"], 1e-9, strict=False, seeded=True)
    v.figures["duhamel_residual"] = s["duhamel_residual"]


def _evolve_reuse(s: dict, pass_dir: str, v: Verdict) -> None:
    # criterion 11 again, on the tensor read back from d-tensor --K 2; the
    # README's artifact reuse must give the recomputed trajectory byte for byte
    _evolve(s, pass_dir, v)
    paths = [os.path.join(pass_dir, c, "trajectory.csv") for c in ("evolve", "evolve-reuse")]
    blobs = []
    for p in paths:
        with open(p, "rb") as fh:
            blobs.append(fh.read())
    v.require(blobs[0] == blobs[1], "trajectory from the reused tensor differs from the recomputed one")


def _verify(s: dict, _: str, v: Verdict) -> None:
    # criteria 7 and 8
    v.require(s["truncated"] is False, "verifier trajectory truncated")
    v.below("max_rel_rate_err", s["max_rel_rate_err"], 1e-3)
    v.figures["rate_rel_err"] = s["max_rel_rate_err"]


# -- workloads ----------------------------------------------------------------------


def checks(seed: int, workers: int) -> List[Check]:
    """README criteria 1-5, 9 and 10; inputs fixed by the README."""
    return [
        Check("basis", ("basis",), _flag("count_formula_ok")),
        Check("eig-check", ("eig-check",), _flag("all_pass")),
        Check("biortho", ("biortho",), _flag("all_pass")),
        Check("solenoidal", ("solenoidal",), _solenoidal),
        Check("wkbj", ("wkbj", "--m", "2", "--N", "3", "--fit"), _wkbj),
        Check("nodal", ("nodal",), _nodal),
        Check("classify", ("classify", "--suite", "synthetic"), _flag("all_exact")),
    ]


def galerkin(seed: int, workers: int) -> List[Check]:
    """Criterion 6, the K=2 tensor, criterion 11, and criterion 11 again on
    the tensor read back from disk. The seed sets the demo:small data and
    the projector test field."""
    grid = ("--workers", str(workers), "--seed", str(seed))
    evolve = ("evolve", "--model", "nse", "--K", "2", "--data", "demo:small",
              "--tau", "3", "--check-linear") + grid
    return [
        Check("d-tensor", ("d-tensor",) + grid, _d_tensor_k1),
        Check("d-tensor-K2", ("d-tensor", "--K", "2") + grid, _d_tensor_k2),
        Check("evolve", evolve, _evolve),
        Check("evolve-reuse", evolve + ("--tensor", os.path.join("d-tensor-K2", "tensor.json")),
              _evolve_reuse),
    ]


def verify(seed: int, workers: int) -> List[Check]:
    """The first level past the constant field of criteria 7 (m=1) and 8
    (m=2): the same verifier path on three fields each, differing only in
    the decay symbol."""
    w = ("--workers", str(workers))
    return [
        Check("verify-m1", ("verify", "--m", "1", "--level", "1") + w, _verify),
        Check("verify-m2", ("verify", "--m", "2", "--level", "1") + w, _verify),
    ]


WORKLOADS: Dict[str, Callable[[int, int], List[Check]]] = {
    "checks": checks,
    "galerkin": galerkin,
    "verify": verify,
}

# accuracy figures the traced run reports; 0 on a workload that does not
# run the check they come from
FIGURES = ("rate_rel_err", "duhamel_residual", "tensor_max_error", "fit_d0_rel_dev")


def judge(check: Check, rc: int, stdout: str, pass_dir: str) -> Verdict:
    """Gate one finished check: exit code 0, an `ok` summary line, and the
    README condition."""
    v = Verdict()
    if rc != 0:
        v.problems.append(f"exit code {rc}")
        return v
    lines = stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
        v.require(summary.get("ok") is True, "summary ok is not true")
        check.gate(summary, pass_dir, v)
    except (IndexError, KeyError, TypeError, ValueError, OSError) as exc:
        v.problems.append(f"unreadable result: {exc!r}")
    for name, value in v.figures.items():
        if not math.isfinite(value):
            v.problems.append(f"{name} is not finite")
    return v
