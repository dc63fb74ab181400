"""End-to-end acceptance checks, one per numbered criterion.

Each test carries its own wall-clock budget; the numeric tolerances are
stated inline next to the asserts they guard.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import numpy as np

from hermflow import cli
from hermflow.dynamics import classify_zero
from hermflow.grid import GridSpec, interaction_tensor
from hermflow.kernel import envelope_fit, kernel_values, wkbj_constants
from hermflow.multiindex import enumerate_level
from hermflow.operators import OperatorParams, apply_B_star, level_enumerate, pairing
from hermflow.polynomial import Polynomial, VectorPolyField
from hermflow.solenoidal import composite_basis, fixture, validate_basis_field
from oracles import project, spectral_divergence, synth_weighted


def _run_cli(capsys, argv):
    code = cli.run(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_criterion_01_scalar_level_counts():
    t0 = time.perf_counter()
    params = OperatorParams(m=1, N=3)
    for k in range(11):
        assert len(level_enumerate(k, params)) == (k + 1) * (k + 2) // 2
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_eigen_relation_exact_through_level_5():
    t0 = time.perf_counter()
    for m in (1, 2, 3):
        params = OperatorParams(m=m, N=3)
        for k in range(6):
            for ep in level_enumerate(k, params):
                assert ep.lam == Fraction(-k, 2 * m)
                assert apply_B_star(ep.psi_star, params) == ep.psi_star.scale(ep.lam)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_biorthogonality_exact_through_level_4():
    t0 = time.perf_counter()
    for m in (1, 2):
        params = OperatorParams(m=m, N=3)
        eps = [ep for k in range(5) for ep in level_enumerate(k, params)]
        for ea in eps:
            fact = Fraction(math.prod(math.factorial(b) for b in ea.beta))
            for eb in eps:
                want = fact if ea.beta == eb.beta else Fraction(0)
                assert pairing(ea.psi_star, eb.beta, params) == want
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_solenoidal_fixtures():
    t0 = time.perf_counter()
    for m, levels in ((1, 3), (2, 5)):
        for k in range(levels):
            params = OperatorParams(m=m, N=3)
            for v in fixture(m, k):
                assert v.divergence().is_zero()
                validate_basis_field(v, k, params)
    for k in (1, 2):
        assert len(fixture(1, k)) == k * (k + 2)
    assert len(fixture(1, 1)) == 3 and len(fixture(1, 2)) == 8
    assert time.perf_counter() - t0 < 5.0


def test_criterion_05_decay_constants_and_kernel_mass():
    t0 = time.perf_counter()
    c = wkbj_constants(2, 3)
    assert c.alpha == Fraction(4, 3)
    assert abs(c.d0 - 3.0 * 2.0 ** (-11.0 / 3.0)) <= 1e-12
    assert abs(c.b0 - 3.0**1.5 * 2.0 ** (-11.0 / 3.0)) <= 1e-12
    assert c.delta0 == Fraction(7, 3)
    table = kernel_values(2)
    assert table.mass_error <= 1e-6
    fit = envelope_fit(table, c)
    assert fit["d0_rel_dev"] < 0.02
    assert fit["alpha_rel_dev"] < 0.01
    assert time.perf_counter() - t0 < 120.0


def test_criterion_06_projection_and_rotation_coupling():
    t0 = time.perf_counter()
    spec = GridSpec(8.0, 64)
    rng = np.random.default_rng(0)
    comps = []
    for _ in range(3):
        terms = {}
        for k in range(4):
            for beta in enumerate_level(k, 3):
                terms[beta] = Fraction(int(rng.integers(-8, 9)), 8)
        comps.append(Polynomial(3, terms))
    u = synth_weighted(VectorPolyField(comps), spec, 1)
    pu = project(u)
    ppu = project(pu)
    scale = float(np.linalg.norm(pu.data))
    assert float(np.linalg.norm(ppu.data - pu.data)) / scale <= 1e-10
    div = spectral_divergence(pu)
    divnorm = float(np.sqrt(spec.h**3 * np.sum(div * div)))
    assert divnorm / (math.sqrt(spec.h**3) * scale) <= 1e-8

    cb = composite_basis(1, 1)
    T = interaction_tensor(cb, spec, refine=False)
    rot = [i for i, (k, _) in enumerate(T.labels) if k == 1]
    self_max = max(float(np.max(np.abs(T.values[a, a, :]))) for a in rot)
    assert self_max <= 1e-8
    assert time.perf_counter() - t0 < 120.0


def test_criterion_07_stokes_rates_levels_1_and_2(tmp_path, capsys):
    t0 = time.perf_counter()
    code, line = _run_cli(
        capsys,
        ["verify", "--m", "1", "--level", "1", "--level", "2", "--outdir", str(tmp_path)],
    )
    assert code == 0
    assert not line["truncated"]
    assert line["max_rel_rate_err"] < 1e-3
    assert time.perf_counter() - t0 < 120.0


def test_criterion_08_burnett_rates_levels_0_and_1(tmp_path, capsys):
    t0 = time.perf_counter()
    code, line = _run_cli(
        capsys,
        ["verify", "--m", "2", "--level", "0", "--level", "1", "--outdir", str(tmp_path)],
    )
    assert code == 0
    assert not line["truncated"]
    assert line["max_rel_rate_err"] < 1e-3
    assert time.perf_counter() - t0 < 120.0


def test_criterion_09_nodal_set_converges_to_reference_plane(tmp_path, capsys):
    t0 = time.perf_counter()
    code, line = _run_cli(capsys, ["nodal", "--outdir", str(tmp_path)])
    assert code == 0
    d = line["distances"]
    assert len(d) == 5
    assert all(b < a for a, b in zip(d, d[1:]))
    assert d[-1] < 0.05
    assert line["decreasing"] and line["verdict"] == "PASS"
    assert time.perf_counter() - t0 < 120.0


def test_criterion_10_zero_type_classification_sweep():
    t0 = time.perf_counter()
    for M in range(1, 5):
        for K in range(1, 5):
            zt = classify_zero(
                lambda x, t, M=M, K=K: [x[0] ** M - (-t) ** K]
            )
            assert zt.status == "classified"
            assert zt.M == M and zt.K == K
            assert zt.gamma == Fraction(K, M)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_11_quadratic_model_consistency(tmp_path, capsys):
    t0 = time.perf_counter()
    code, line = _run_cli(
        capsys,
        [
            "evolve",
            "--model",
            "nse",
            "--K",
            "2",
            "--data",
            "demo:small",
            "--tau",
            "3",
            "--check-linear",
            "--outdir",
            str(tmp_path),
        ],
    )
    assert code == 0
    assert line["stokes_dev"] <= 1e-9
    assert line["duhamel_residual"] <= 1e-6
    assert not line["truncated"]
    assert time.perf_counter() - t0 < 60.0
