from __future__ import annotations

import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hermflow import dynamics, grid
from hermflow.dynamics import (
    CoefficientTrajectory,
    Expansion,
    classify_zero,
    detect_resonance,
    diagonal_flow,
    diagonal_trajectory,
    expand,
    nodal_compare,
    nodal_extract,
    nse_galerkin,
    rate_check,
    semigroup_verify,
    unique_continuation_diagnostic,
)
from hermflow.errors import EmptyCloudError, ValidationError
from hermflow.dynamics import _Extractor
from hermflow.grid import (
    GridSpec,
    InteractionTensor,
    dilate_coeffs,
    hermitian_transform,
    interaction_tensor,
    spectrum_cubes,
)
from hermflow.operators import OperatorParams, eigenfunction
from hermflow.polynomial import Polynomial, VectorPolyField, evaluate_cube
from hermflow.solenoidal import (
    CompositeBasis,
    composite_basis,
    fixture,
    level_basis,
)
from oracles import (
    GridVectorField,
    axis_moments,
    closed_form_rows,
    fraction_classify_zero,
    freq_sq,
    hausdorff,
    mirror_octant,
    padded_octant,
    pair_fields,
    plain_residual_norm,
    synth_duals,
    synth_weighted,
    to_grid,
)


@pytest.fixture(scope="module")
def cb2():
    return composite_basis(1, 2)


@pytest.fixture(scope="module")
def cb3():
    return composite_basis(1, 3)


def _combo(basis, coeffs):
    total = VectorPolyField([Polynomial.zero(3)] * 3)
    for lab, f in zip(basis.labels, basis.fields):
        c = coeffs.get(lab)
        if c:
            total = total + f.scale(c)
    return total


def test_expansion_validation_and_vector(cb2):
    with pytest.raises(ValidationError):
        Expansion(cb2, {(1, 0): float("nan")})
    e = Expansion(cb2, {(1, 0): 2.0})
    assert e.labels == cb2.labels
    vec = e.vector()
    assert vec[cb2.labels.index((1, 0))] == 2.0 and np.sum(vec != 0.0) == 1


def test_expand_polynomial_path_is_exact(cb2):
    coeffs = {
        lab: Fraction((3 * i - 7) % 11 - 5, 4) for i, lab in enumerate(cb2.labels)
    }
    e = expand(_combo(cb2, coeffs), cb2)
    for lab in cb2.labels:
        assert e.coeffs[lab] == coeffs[lab]


def test_expand_demo_perturbation_exact_coefficients(cb3):
    # each component of w is a single polynomial eigenfunction at level 3;
    # together they form one computed-kernel basis field
    params = OperatorParams(m=1, N=3)
    w = VectorPolyField(
        [
            eigenfunction((2, 1, 0), params).psi_star.scale(Fraction(-1)),
            eigenfunction((1, 2, 0), params).psi_star,
            Polynomial.zero(3),
        ]
    )
    assert w.divergence().is_zero()
    u0 = fixture(1, 1)[0] + w.scale(Fraction(1, 2))
    e0 = expand(u0, cb3)
    nonzero = {lab: c for lab, c in e0.coeffs.items() if c}
    assert nonzero == {(1, 0): Fraction(1), (3, 10): Fraction(1, 2)}


def test_expand_refuses_anything_but_a_polynomial_field(cb2):
    # the polynomial factor is the one input form; grid samples are not one
    for u in ("not a field", synth_weighted(fixture(1, 1)[0], GridSpec(12.0, 32), 1)):
        with pytest.raises(ValidationError, match="expand needs a VectorPolyField"):
            expand(u, cb2)


@pytest.mark.parametrize("m, k", [(1, 2), (1, 3), (2, 1)])
def test_single_level_and_one_block_composite_agree(m, k):
    # level 3 at m=1 comes from the computed kernel, the others from the
    # catalog; both shapes of basis expose the same interface
    single = level_basis(m, k)
    comp = CompositeBasis(params=single.params, blocks=[level_basis(m, k)])
    assert single.blocks == [single]
    assert single.labels == comp.labels == [(k, i) for i in range(single.count)]
    assert single.fields == comp.fields
    assert single.params == comp.params and single.count == comp.count
    coeffs = {lab: Fraction(i + 1, 3) for i, lab in enumerate(single.labels)}
    u = _combo(single, coeffs)
    ep_s, ep_c = expand(u, single), expand(u, comp)
    assert ep_s.coeffs == ep_c.coeffs == coeffs


def test_diagonal_flows_decay_at_exact_rates(cb2):
    e0 = Expansion(cb2, {(0, 0): 1.0, (2, 3): -0.5})
    e1 = diagonal_flow(e0, 2.0)
    assert e1.coeffs[(0, 0)] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert e1.coeffs[(2, 3)] == pytest.approx(-0.5 * math.exp(-3.0), rel=1e-15)
    assert diagonal_flow(Expansion(cb2, {}), 1.0).coeffs == {}

    b2 = composite_basis(2, 2)
    eb = Expansion(b2, {(0, 0): 1.0, (1, 2): 2.0})
    eb1 = diagonal_flow(eb, 1.0)
    assert eb1.coeffs[(0, 0)] == pytest.approx(math.exp(-0.75), rel=1e-15)
    assert eb1.coeffs[(1, 2)] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)


def test_m2_diagonal_flow_decays_level_0_at_three_quarters():
    # the basis order sets the rate: the same unit level-0 coefficient decays
    # like exp(-0.75 tau) over an m=2 basis and exp(-0.5 tau) over an m=1 one
    for m, rate in ((2, 0.75), (1, 0.5)):
        e0 = Expansion(composite_basis(m, 1), {(0, 0): 1.0})
        for tau in (0.5, 1.0, 3.0):
            got = diagonal_flow(e0, tau).coeffs[(0, 0)]
            assert got == pytest.approx(math.exp(-rate * tau), rel=1e-15)


def test_rate_check_fits_exact_trajectories(cb2):
    taus = np.linspace(0.0, 3.0, 41)
    e0 = Expansion(cb2, {(1, 0): 1.0, (2, 3): 0.5, (0, 0): 1e-12})
    rc = rate_check(diagonal_trajectory(e0, taus))
    assert set(rc["rates"]) == {(1, 0), (2, 3)}  # the 1e-12 one sits below floor
    assert rc["rates"][(1, 0)]["expected"] == -1.0
    assert rc["rates"][(2, 3)]["expected"] == -1.5
    assert rc["max_rel_err"] <= 1e-12

    b2 = composite_basis(2, 1)
    eb = Expansion(b2, {(0, 0): 1.0, (1, 1): -2.0})
    rb = rate_check(diagonal_trajectory(eb, taus))
    assert rb["rates"][(0, 0)]["expected"] == -0.75
    assert rb["rates"][(1, 1)]["expected"] == -1.0
    assert rb["max_rel_err"] <= 1e-12

    with pytest.raises(ValidationError):
        rate_check(diagonal_trajectory(Expansion(cb2, {}), taus))
    with pytest.raises(ValidationError):
        rate_check(diagonal_trajectory(e0, [0.0, 1.0]))


def test_rate_check_reads_the_order_from_the_basis():
    # m=2 expectations are -(k+3)/4, with no order passed in
    taus = np.linspace(0.0, 3.0, 31)
    b2 = composite_basis(2, 2)
    e0 = Expansion(b2, {(0, 0): 1.0, (1, 0): 0.5, (2, 1): -0.25})
    rc = rate_check(diagonal_trajectory(e0, taus))
    assert {lab: r["expected"] for lab, r in rc["rates"].items()} == {
        (0, 0): -0.75, (1, 0): -1.0, (2, 1): -1.25
    }
    assert rc["max_rel_err"] <= 1e-12
    # coefficients decaying at the m=1 rates over the m=2 basis are rejected
    C = np.zeros((len(taus), b2.count))
    C[:, 0] = np.exp(-0.5 * taus)
    wrong = CoefficientTrajectory(b2, taus, C)
    bad = rate_check(wrong)
    assert bad["rates"][(0, 0)]["expected"] == -0.75
    assert bad["max_rel_err"] == pytest.approx(1.0 / 3.0, rel=1e-9)


def _zero_tensor(basis, spec):
    n = basis.count
    z = np.zeros((n, n, n))
    return InteractionTensor(
        m=basis.params.m,
        N=3,
        spec=spec,
        labels=basis.labels,
        values=z,
        errors=np.zeros_like(z),
    )


def test_nse_with_zero_tensor_reproduces_diagonal_flow(cb2):
    spec = GridSpec(8.0, 64)
    e0 = Expansion(
        cb2,
        {l: 0.1 * ((i % 5) - 2) for i, l in enumerate(cb2.labels) if (i % 5) != 2},
    )
    traj = nse_galerkin(e0, _zero_tensor(cb2, spec), 3.0, n_out=41)
    assert not traj.diagnostic["truncated"]
    assert traj.duhamel_residual <= 1e-8
    exact = diagonal_trajectory(Expansion(cb2, dict(e0.coeffs)), traj.taus)
    dev = np.max(np.abs(traj.C - exact.C))
    assert dev <= 1e-9


def test_nse_with_zero_tensor_uses_the_basis_order_rates():
    # over an m=2 basis the linear part decays at -(k+3)/4, like the exact flow
    b2 = composite_basis(2, 1)
    e0 = Expansion(b2, {(0, 0): 0.2, (1, 0): -0.1, (1, 2): 0.05})
    traj = nse_galerkin(e0, _zero_tensor(b2, GridSpec(8.0, 32)), 3.0, n_out=31)
    exact = diagonal_trajectory(e0, traj.taus)
    assert np.max(np.abs(traj.C - exact.C)) <= 1e-9
    assert rate_check(traj)["rates"][(0, 0)]["expected"] == -0.75


def test_nse_quadratic_coupling_passes_duhamel_check():
    cb1 = composite_basis(1, 1)
    T = interaction_tensor(cb1, GridSpec(8.0, 64), refine=False)
    e0 = Expansion(
        cb1, {(0, 0): 0.05, (1, 0): 0.2, (1, 1): -0.1, (1, 2): 0.15}
    )
    traj = nse_galerkin(e0, T, 3.0, n_out=41)
    assert traj.duhamel_residual <= 1e-8
    assert not traj.diagnostic["truncated"]
    mismatched = _zero_tensor(composite_basis(1, 2), GridSpec(8.0, 64))
    with pytest.raises(ValidationError):
        nse_galerkin(e0, mismatched, 1.0)


def test_envelope_check(cb2):
    e0 = Expansion(cb2, {(1, 0): 1.0, (2, 1): 0.25})
    traj = diagonal_trajectory(e0, np.linspace(0.0, 3.0, 31))
    env = traj.envelope_check()
    assert env["ok"] and env["constant"] == 1.0
    C = np.zeros((2, cb2.count))
    C[:, cb2.labels.index((1, 0))] = [1.0, 2.0]
    bad = CoefficientTrajectory(cb2, np.array([0.0, 1.0]), C)
    assert not bad.envelope_check()["ok"]


def test_trajectory_csv_layout(cb2):
    e0 = Expansion(cb2, {(1, 0): 1.0})
    traj = diagonal_trajectory(e0, np.linspace(0.0, 1.0, 3))
    lines = traj.to_csv().strip().split("\n")
    assert lines[0] == "tau," + ",".join(f"l{k}:{i}" for k, i in cb2.labels)
    assert len(lines) == 4
    row = lines[1].split(",")
    assert float(row[0]) == 0.0 and len(row) == cb2.count + 1


def test_trajectories_are_one_coefficient_array(cb2, monkeypatch):
    # the Galerkin run and the verifier write the times x labels array
    # directly, with no single-state Expansion per output time
    made = []
    single = dynamics.Expansion

    def counted(*args, **kwargs):
        made.append(args)
        return single(*args, **kwargs)

    e0 = Expansion(cb2, {(1, 0): 0.2, (2, 1): -0.1})
    monkeypatch.setattr(dynamics, "Expansion", counted)
    run = nse_galerkin(e0, _zero_tensor(cb2, GridSpec(8.0, 32)), 1.0, n_out=11)
    ver = semigroup_verify(fixture(1, 1)[0], 1, L=16.0, n_tau=5)
    assert made == []
    for traj in (run, ver):
        assert traj.C.dtype == np.float64
        assert traj.C.shape == (len(traj.taus), traj.basis.count)
    assert run.labels == cb2.labels and (run.residuals, run.overlap) == ([], [])
    assert len(ver.residuals) == len(ver.overlap) == len(ver.taus) >= 2


def test_detect_resonance_statuses(cb3):
    taus = np.linspace(0.0, 4.0, 41)
    e0 = Expansion(cb3, {(1, 0): 1.0, (3, 10): 0.5})
    rep = detect_resonance(diagonal_trajectory(e0, taus), window=(0.0, 4.0))
    assert rep.status == "resonant"
    assert rep.shared_level == 1 and rep.dominant == [(1, 0)]
    assert rep.rate == pytest.approx(-1.0, abs=1e-12)
    assert rep.rate_deviation <= 1e-12
    assert rep.subdominant_gap == pytest.approx(1.0, abs=1e-12)

    # default window drops the first quarter of the samples
    rep_dflt = detect_resonance(diagonal_trajectory(e0, taus))
    assert rep_dflt.window == (1.0, 4.0) and rep_dflt.status == "resonant"

    e1 = Expansion(cb3, {(0, 0): 0.3, (1, 0): 1.0})
    rep1 = detect_resonance(diagonal_trajectory(e1, taus), window=(0.0, 4.0))
    assert rep1.status == "non-degenerate"
    assert rep1.shared_level == 0 and rep1.dominant == [(0, 0)]

    short = diagonal_trajectory(e0, np.linspace(0.0, 1.0, 11))
    assert detect_resonance(short, window=(0.0, 1.0)).status == "inconclusive"

    with pytest.raises(ValidationError):
        detect_resonance(diagonal_trajectory(e0, taus), window=(3.9, 4.0))


def test_nodal_extract_plane_zero_set():
    ep = Expansion(composite_basis(1, 1), {(1, 0): 1.0})
    clouds = nodal_extract(ep, R=2.0, cell=0.05)
    assert len(clouds) == 3
    assert len(clouds[0]) == 0  # identically zero component
    c1 = clouds[1]
    assert len(c1) > 0
    assert np.max(np.abs(c1[:, 2])) == 0.0  # the y3 = 0 plane, hit exactly
    # edge-based ball filter keeps points at most one cell past the sphere
    norms = np.sqrt(np.einsum("ij,ij->i", c1, c1))
    assert norms.max() <= 2.0 + 2 * 0.05

    ax = np.linspace(-2.0, 2.0, 81)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    mask = X**2 + Y**2 <= 4.0 + 1e-12
    plane = np.stack([X[mask], Y[mask], np.zeros(int(mask.sum()))], axis=1)
    assert hausdorff(c1, plane) == 0.0

    with pytest.raises(ValidationError):
        nodal_extract(Expansion(composite_basis(1, 1), {}))
    # a degenerate ball or cell is refused, not sampled as one point
    for R, cell in ((0.0, 0.05), (2.0, 0.0), (2.0, -0.1), (0.5, 0.5), (-1.0, 0.05)):
        with pytest.raises(ValidationError, match="0 < cell < R"):
            nodal_extract(ep, R=R, cell=cell)


@pytest.mark.parametrize("n", [81, 161])
def test_nodal_extract_working_set(cb3, n):
    # the refusal in `nodal_extract` sizes the sampling grid at _NODAL_ARRAYS
    # float64 arrays of n^3; the measured peak must stay within it
    e = diagonal_flow(Expansion(cb3, {(1, 0): 1.0, (3, 10): 0.5}), 1.0)
    R = 2.0
    cell = 2.0 * R / (n - 1)
    nodal_extract(e, R=R, cell=cell)  # exact field polynomial and tables
    tracemalloc.start()
    try:
        clouds = nodal_extract(e, R=R, cell=cell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(c) for c in clouds) > 0
    assert peak <= dynamics._NODAL_ARRAYS * 8 * n**3


def test_hausdorff_oracle_symmetry_and_filters():
    ax = np.linspace(-2.0, 2.0, 41)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    plane = np.stack([X.ravel(), Y.ravel(), np.zeros(X.size)], axis=1)
    shifted = plane + np.array([0.0, 0.0, 0.3])
    assert hausdorff(plane, shifted) == pytest.approx(0.3, abs=1e-12)
    assert hausdorff(shifted, plane) == hausdorff(plane, shifted)
    with pytest.raises(EmptyCloudError):
        hausdorff(np.zeros((0, 3)), plane)


def _disc(z: float, R: float = 2.0, n: int = 41) -> np.ndarray:
    """Grid points of the plane y3 = z inside the ball |y| <= R."""
    ax = np.linspace(-R, R, n)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    mask = X**2 + Y**2 + z * z <= R * R
    return np.stack([X[mask], Y[mask], np.full(int(mask.sum()), z)], axis=1)


def test_nodal_compare_plane_against_shifted_plane():
    z = Polynomial.variable(3, 2)
    shifted = z - Polynomial.constant(3, Fraction(3, 10))
    got = nodal_compare(_disc(0.0), z, _disc(0.3), shifted, R=2.0)
    assert got["distance"] == pytest.approx(0.3, abs=1e-12)
    assert got["unresolved"] == 0 and got["outside_ball"] > 0  # the rim of each disc
    assert nodal_compare(_disc(0.3), shifted, _disc(0.0), z, R=2.0) == got
    # the distance is to the surface, not to the cloud: one point of the
    # shifted plane is as far from z = 0 as all of them
    one = nodal_compare(_disc(0.0), z, [[1.0, 1.0, 0.3]], shifted, R=2.0)
    assert one["distance"] == pytest.approx(0.3, abs=1e-12) and one["unresolved"] == 0


def test_nodal_compare_empty_in_ball_cloud():
    z = Polynomial.variable(3, 2)
    with pytest.raises(EmptyCloudError):
        nodal_compare(np.zeros((0, 3)), z, _disc(0.0), z)
    # a cloud with every point past the sphere is empty in the ball
    with pytest.raises(EmptyCloudError):
        nodal_compare([[2.05, 0.0, 0.0]], z, _disc(0.0), z, R=2.0)


@pytest.mark.parametrize("cell", [0.1, 0.05])
def test_nodal_compare_within_a_cell_of_the_hausdorff_oracle(cb3, cell):
    # on the demo states the surface figure is never worse than the
    # cloud-to-cloud one by more than the sampling it no longer depends on
    e0 = Expansion(cb3, {(1, 0): 1.0, (3, 10): 0.5})
    ref = Expansion(cb3, {(1, 0): 1.0})
    ref_cloud = nodal_extract(ref, cell=cell)[1]
    ref_poly = ref.field_poly().components[1]
    for tau in (0.0, 1.0, 2.0, 3.0, 4.0):
        state = diagonal_flow(e0, tau)
        cloud = nodal_extract(state, cell=cell)[1]
        got = nodal_compare(cloud, state.field_poly().components[1], ref_cloud, ref_poly)
        assert got["unresolved"] == 0
        assert got["distance"] <= hausdorff(cloud, ref_cloud) + cell


def test_nodal_compare_cone_vertex_is_unresolved():
    # grad f vanishes at the vertex of x^2 + y^2 - z^2 = 0, a multiple zero:
    # the vertex is unresolved and bounded by the nearest point of the cone's
    # cloud; the point (1, 0, 0.5) converges onto the smooth sheet
    cone = Polynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
    t = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    h = np.repeat([0.25, 0.5, 1.0], len(t))
    tt = np.tile(t, 3)
    cone_cloud = np.stack([h * np.cos(tt), h * np.sin(tt), h], axis=1)
    got = nodal_compare(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.5]], Polynomial.variable(3, 2), cone_cloud, cone
    )
    assert got["unresolved"] == 1
    # the cone's cloud lies at heights up to 1 above z = 0; the vertex's
    # bound, 0.25 * sqrt(2), is below that
    assert got["distance"] == pytest.approx(1.0)
    # alone, the vertex is bounded by its nearest cloud point
    got = nodal_compare([[0.0, 0.0, 0.0]], cone, cone_cloud, cone)
    assert got["unresolved"] == 1 and got["distance"] == pytest.approx(0.25 * math.sqrt(2.0))


def _poly(*terms) -> Polynomial:
    """The polynomial in (x1, x2, x3, t) of (a1, a2, a3, b, c) terms c x^a t^b."""
    return Polynomial(4, {tuple(term[:4]): term[4] for term in terms})


def _x_minus_t(M: int, K: int) -> Polynomial:
    """x1^M - (-t)^K, the model zero of criterion 10."""
    return _poly((M, 0, 0, 0, 1), (0, 0, 0, K, -((-1) ** K)))


def test_classify_zero_monomial_cases():
    for M, K in [(1, 1), (2, 3), (4, 4)]:
        zt = classify_zero(_x_minus_t(M, K))
        assert zt.status == "classified"
        assert (zt.M, zt.K, zt.gamma) == (M, K, Fraction(K, M))
    mixed = classify_zero(_poly((1, 2, 0, 0, 1), (0, 0, 0, 2, -1)))
    assert (mixed.M, mixed.K) == (3, 2)
    assert mixed.gamma == Fraction(2, 3)
    assert "(2/3)" in mixed.rescale


def test_classify_zero_temporal_degenerate():
    # u = x3 (1 + t) vanishes identically on the t-axis: no x-free term
    zt = classify_zero(_poly((0, 0, 1, 0, 1), (0, 0, 1, 1, 1)))
    assert zt.status == "temporal-degenerate"
    assert zt.M == 1 and zt.K is None and zt.gamma is None
    # an x-free term beyond max_order counts as none
    deep = classify_zero(_poly((0, 1, 0, 0, 1), (0, 0, 0, 7, 1)), max_order=6)
    assert (deep.status, deep.M, deep.K) == ("temporal-degenerate", 1, None)


def _heat_swirl() -> list:
    """The nonzero components of u = curl of a spreading Gaussian, which
    vanishes identically on the t-axis, as its Taylor polynomials: up to r^2
    and t^3, constant factors dropped, scaled to integer coefficients.

    With a = 2 + t and s = t / 2, x3 / a phi is up to a constant
    x3 (1 + s)^(-5/2) exp(-r^2 / (8 (1 + s))) = x3 sum_k (-r^2/8)^k / k!
    (1 + s)^(-5/2-k); the second component is the same with -x2 for x3."""
    out = []
    for axis, sign in ((2, 1), (1, -1)):
        terms = {}
        for k in range(2):
            for j in range(4):
                # binomial(-(5/2 + k), j) (1/2)^j (-1/8)^k / k!
                c = Fraction((-1) ** k, 8**k * math.factorial(k) * 2**j)
                for i in range(j):
                    c *= Fraction(-(5 + 2 * k) - 2 * i, 2 * (i + 1))
                for r2 in ((2, 0, 0), (0, 2, 0), (0, 0, 2)) if k else ((0, 0, 0),):
                    ex = [r2[0], r2[1], r2[2], j]
                    ex[axis] += 1
                    terms[tuple(ex)] = terms.get(tuple(ex), 0) + sign * c * 2**10
        out.append(Polynomial(4, terms))
    return out


def test_classify_zero_temporal_degenerate_heat_swirl():
    for u in _heat_swirl():
        assert all(c.denominator == 1 for c in u.terms.values())
        zt = classify_zero(u)
        assert zt.status == "temporal-degenerate"
        assert zt.M == 1 and zt.K is None and zt.gamma is None


def _sampler(u: Polynomial):
    """u as a sampler of the finite-difference reference: the float of its
    exact value at each lattice point."""
    return lambda x, t: [float(u.evaluate([Fraction(v) for v in (*x, t)]))]


_ORACLE_CASES = {
    **{f"synthetic-{M}-{K}": [_x_minus_t(M, K)] for M in range(1, 5) for K in range(1, 5)},
    "mixed-xy2": [_poly((1, 2, 0, 0, 1), (0, 0, 0, 2, -1))],
    "mixed-xyz": [
        _poly((1, 1, 1, 0, 1), (0, 0, 0, 1, Fraction("0.3"))),
        _poly((0, 0, 2, 0, 1), (0, 0, 0, 3, Fraction("-0.1"))),
    ],
    "mixed-x2y": [_poly((2, 1, 0, 0, Fraction("0.1")), (0, 0, 0, 4, 3))],
    "heat-swirl": _heat_swirl(),
    # samples from 1e300 down to 1e-300 and subnormals
    "wide-range": [
        _poly((3, 0, 0, 0, Fraction(1e300)), (0, 0, 0, 2, -Fraction(1e300))),
        _poly((0, 1, 0, 0, Fraction(1e-300)), (0, 0, 1, 0, Fraction(5e-324))),
        _poly((0, 0, 0, 1, Fraction(1e-300))),
    ],
    # every sample a multiple of the smallest subnormal: 5e-324 (X^2 - T^3)
    # with X = 8 x and T = -8 t
    "subnormal": [_poly((2, 0, 0, 0, 64 * Fraction(5e-324)), (0, 0, 0, 3, 512 * Fraction(5e-324)))],
}


# the random polynomials checked against the reference
_RANDOM_CASES = 100


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_classify_zero_matches_the_fraction_oracle(name):
    # the orders read off the terms are the decisions of the
    # finite-difference reference, component by component
    for u in _ORACLE_CASES[name]:
        assert classify_zero(u) == fraction_classify_zero(_sampler(u)), u


def test_classify_zero_matches_the_fraction_oracle_on_random_terms():
    # random polynomials on which the reference is exact: degree <= 3 per
    # spatial variable and <= 4 in t (its stencils on 2 max_order + 1 nodes
    # are exact up to degree 2 max_order >= 4), small integer coefficients
    # (every sample is an exact float), no constant term, and a pure power
    # of one of x1, x2, x3, t (the axes its scale probe samples); the small
    # bounds put orders on both sides of max_order
    rng = random.Random(27)
    statuses = set()
    for _ in range(_RANDOM_CASES):
        max_order = rng.choice([2, 3, 4])
        axis = rng.randrange(4)
        pure = [0, 0, 0, 0]
        pure[axis] = rng.randint(1, 4 if axis == 3 else 3)
        terms = {tuple(pure): rng.choice([-3, -2, -1, 1, 2, 3])}
        for _ in range(rng.randint(0, 4)):
            ex = tuple(rng.randint(0, 3) for _ in range(3)) + (rng.randint(0, 4),)
            if any(ex):
                terms[ex] = terms.get(ex, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
        u = Polynomial(4, terms)
        zt = classify_zero(u, max_order)
        statuses.add(zt.status)
        assert zt == fraction_classify_zero(_sampler(u), max_order), (u, max_order)
    assert statuses == {"classified", "temporal-degenerate", "order-exceeds-bound"}


def test_classify_zero_edge_statuses():
    deep = classify_zero(_poly((7, 0, 0, 0, 1), (0, 0, 0, 1, 1)), max_order=6)
    assert deep.status == "order-exceeds-bound"
    assert deep.M is None
    # a t-free term is needed for M
    assert classify_zero(_poly((1, 0, 0, 1, 1))).status == "order-exceeds-bound"
    zero = classify_zero(Polynomial.zero(4))
    assert zero.status == "zero-field"
    with pytest.raises(ValidationError, match="does not vanish at the base point"):
        classify_zero(_poly((0, 0, 0, 0, 1), (1, 0, 0, 0, 1)))
    with pytest.raises(ValidationError, match="max_order must be >= 1"):
        classify_zero(_poly((1, 0, 0, 0, 1)), max_order=0)
    with pytest.raises(ValidationError, match="got dim 3"):
        classify_zero(Polynomial(3, {(1, 0, 0): 1}))


def test_semigroup_verify_small_box():
    traj = semigroup_verify(fixture(1, 1)[0], 1, L=16.0, n_tau=9)
    # the small box truncates late times where periodic images overlap
    assert traj.diagnostic["truncated"]
    rc = rate_check(traj)
    assert rc["max_rel_err"] <= 1e-4
    assert rc["rates"][(1, 0)]["expected"] == -1.0
    with pytest.raises(ValidationError):
        semigroup_verify(fixture(1, 1)[0], 3)
    with pytest.raises(ValidationError):
        semigroup_verify(fixture(1, 1)[0], 1, t_end=-2.0)
    bad = VectorPolyField(
        [Polynomial.monomial((1, 0, 0)), Polynomial.zero(3), Polynomial.zero(3)]
    )
    with pytest.raises(ValidationError):
        semigroup_verify(bad, 1)
    zero = VectorPolyField([Polynomial.zero(3)] * 3)
    with pytest.raises(ValidationError, match="identically zero"):
        semigroup_verify(zero, 1, L=16.0)


@pytest.mark.parametrize("m, L", [(1, 0.5), (2, 3.0)])
def test_semigroup_verify_refuses_box_too_small_for_any_time(m, L):
    # 2L - 8 < 0: no output time keeps the periodic images apart (m=2 used
    # to raise a complex power, m=1 to keep early times with a bogus fit)
    with pytest.raises(ValidationError, match="too small"):
        semigroup_verify(fixture(m, 1)[0], m, L=L)


def _quadrature_reference(basis, u, spec):
    """Coefficients and residual of grid samples u by grid quadrature
    against synthesized duals and realizations."""
    m = basis.params.m
    duals = [w for b in basis.blocks for w in synth_duals(b, spec)]
    realz = [synth_weighted(v, spec, m) for v in basis.fields]
    M = np.array([[pair_fields(r, w) for w in duals] for r in realz])
    c = np.linalg.solve(M.T, np.array([pair_fields(u, w) for w in duals]))
    recon = sum(ci * r.data for ci, r in zip(c, realz))
    return c, math.sqrt(spec.h**3 * np.sum((u.data - recon) ** 2))


@pytest.mark.parametrize("m, k, other", [(1, 2, 1), (2, 1, 0)])
def test_frequency_extractor_matches_grid_quadrature(m, k, other):
    # a span combination plus a field of another level: the cross-level
    # pairings vanish and that field's norm is the residual
    spec = GridSpec(16.0, 48)
    basis = level_basis(m, k)
    data = _combo(basis, {lab: Fraction(i + 2, 5) for i, lab in enumerate(basis.labels)})
    data = data + fixture(m, other)[0]
    extract = _Extractor(basis, spec.L)

    # the verifier's rescaled spectrum exp(-b|eta|^2m) P(sigma eta), from
    # its coefficient arrays versus a grid synthesis of the same spectrum
    b, sigma = 3.0, 0.5 ** (-1.0 / (2 * m))
    (P,) = spectrum_cubes([data], m)
    c, resid = extract.closed_form(dilate_coeffs(P, sigma), b)
    eta = spec.freqs() * sigma
    comps = []
    for p in data.components:
        H = hermitian_transform(p, m).terms
        acc = sum(
            (1j) ** g * Polynomial(3, {d: h for d, h in H.items() if sum(d) % 4 == g}).evaluate_grid([eta] * 3)
            for g in range(4)
        )
        comps.append(to_grid(spec, acc * np.exp(-b * freq_sq(spec) ** m)).real)
    u = GridVectorField(spec, np.stack(comps))
    c_ref, resid_ref = _quadrature_reference(basis, u, spec)
    assert np.max(np.abs(c - c_ref)) <= 1e-13
    assert abs(resid - resid_ref) <= 1e-10 * resid_ref and resid_ref > 1e-3


def test_semigroup_verify_runs_no_fft(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the verifier ran an FFT")

    monkeypatch.setattr(np.fft, "fftn", refuse)
    monkeypatch.setattr(np.fft, "ifftn", refuse)
    traj = semigroup_verify(fixture(2, 1)[0], 2, L=16.0, n_tau=7)
    assert traj.C.shape == (len(traj.taus), traj.basis.count) and len(traj.taus) >= 3


def test_semigroup_verify_caches_nothing_per_time():
    # nor any lattice array: the weights and moment tables are made per
    # output time and dropped, at m=1 (whose tables are products of 1-D
    # sums) and at m=2
    grid._CACHE.clear()
    for n_tau in (5, 9):
        semigroup_verify(fixture(1, 1)[0], 1, L=14.0, n_tau=n_tau)
        assert grid._CACHE == {}
    semigroup_verify(fixture(2, 1)[0], 2, L=16.0, n_tau=7)
    assert grid._CACHE == {}


def test_semigroup_verify_builds_no_grid(monkeypatch):
    # the verifier sums over the lattice pi Z^3 / L: it makes no periodic
    # grid, and reads neither the FFT-ordered wavenumbers nor their fold
    def refuse(*args, **kwargs):
        raise AssertionError("the verifier used a grid")

    for name in ("GridSpec", "_kint", "_fold"):
        monkeypatch.setattr(grid, name, refuse)
    for m in (1, 2):
        traj = semigroup_verify(fixture(m, 1)[0], m, L=16.0, n_tau=7)
        assert traj.C.shape == (len(traj.taus), traj.basis.count) and len(traj.taus) >= 3


@pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf, -1.0, 0.0, 2.0**64 * 1.01, 1e300])
def test_semigroup_verify_refuses_an_out_of_range_box(monkeypatch, L):
    # before any lattice array exists, and without a numpy warning
    def unreachable(*args, **kwargs):
        raise AssertionError("the extractor was built")

    monkeypatch.setattr(dynamics, "_Extractor", unreachable)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=re.escape(f"L={L!r}")):
            semigroup_verify(fixture(1, 1)[0], 1, L=L)


def _lattice_parts(P, spec):
    """Real and imaginary parts of sum_d i^|d| P[d] eta^d on the whole
    frequency lattice (None for a part that vanishes)."""
    eta = [spec.freqs()] * 3
    return [None if A is None else evaluate_cube(A, eta) for A in grid.hermitian_parts(P)]


def _full_lattice_closed_form(extract, X, b, spec):
    """The coefficients of `_Extractor.closed_form` on full lattice arrays:
    the weights on every lattice point, and the moment table of their
    product summed over every lattice point. Returns (c, w, decay)."""
    w, decay = (np.exp(np.multiply(freq_sq(spec) ** extract.m, -c)) for c in (b, 1.0))
    Dx, Dw = X.shape[-1] - 1, extract.duals.shape[-1] - 1
    table = axis_moments(w * decay, spec.freqs(), Dx + Dw)
    raw = grid.moment_pairings(X[None], extract.duals, table, spec.L)[0]
    return np.linalg.solve(extract.M.T, raw), w, decay


def _full_lattice_residual(extract, X, c, w, decay, spec):
    """The residual of `_Extractor.closed_form` for the coefficients c, and
    the norms of the data and of the model, from whole-lattice evaluations
    of each real and imaginary part, weighted, subtracted and squared one
    array at a time."""
    Y = np.tensordot(c, extract.realz, axes=(0, 0))
    totals = np.zeros(3)  # data minus model, data, model
    for comp in range(3):
        for x, y in zip(_lattice_parts(X[comp], spec), _lattice_parts(Y[comp], spec)):
            x = 0.0 if x is None else x * w
            y = 0.0 if y is None else y * decay
            totals += [float(np.sum(np.square(x - y))), float(np.sum(np.square(x))),
                       float(np.sum(np.square(y)))]
    return np.sqrt(totals / (2.0 * spec.L) ** 3)


# the residual r of `_Extractor.closed_form` is the form
# r^2 = <X, X> - 2 <X, Y> + <Y, Y>, so its absolute error is about
# eps (|X|^2 + 2 |<X, Y>| + |Y|^2) <= eps (|X| + |Y|)^2, for the data X
# and the model Y; at most 3.7 eps (|X| + |Y|)^2 was seen
_FORM_TOL = 16 * np.finfo(float).eps


def _within_form_bound(resid, ref, nx, ny) -> bool:
    return abs(resid * resid - ref * ref) <= _FORM_TOL * (nx + ny) ** 2


@pytest.mark.parametrize("m", [1, 2])
def test_blocked_residual_matches_full_lattice_route(m):
    # a level whose spectrum cubes reach power 3 per variable (the level-3
    # kernel block for m=1, beyond the fixture catalogue; level 1 for m=2),
    # data in its span plus a field of another level, at the verifier's
    # rescalings: s = 1 is tau = 0, where only roundoff is left over
    spec = GridSpec(16.0, 48)
    basis = level_basis(m, 3 if m == 1 else 1)
    data = _combo(basis, {lab: Fraction(i + 2, 5) for i, lab in enumerate(basis.labels)})
    (P,) = spectrum_cubes([data], m)
    assert P.shape[-1] - 1 >= 3
    (other,) = spectrum_cubes([fixture(m, 0)[0]], m)
    extract = _Extractor(basis, spec.L)
    for s in (1.0, 0.5, 0.2, 0.05):
        b, sigma = (2.0 - s) / s, s ** (-1.0 / (2 * m))
        for X in (P, P + np.pad(other, [(0, 0)] + [(0, P.shape[-1] - other.shape[-1])] * 3)):
            X = dilate_coeffs(X, sigma)
            c_ref, w_ref, decay_ref = _full_lattice_closed_form(extract, X, b, spec)
            c, resid = extract.closed_form(X, b)
            # the octant sum folds k and -k before it adds up, so the
            # moment table, and c, move by roundoff only (5.2 ulp seen)
            assert np.max(np.abs(c - c_ref)) <= 16 * np.finfo(float).eps * np.max(np.abs(c_ref))
            resid_ref, nx, ny = _full_lattice_residual(extract, X, c, w_ref, decay_ref, spec)
            # the weight is exact where computed and exactly 0.0 elsewhere,
            # and so is the weight at b + 1 the moment table reads
            for exponent, ref in ((b, w_ref), (b + 1.0, w_ref * decay_ref)):
                box = grid.octant_weight(spec.L, m, exponent, spec.n)
                w = mirror_octant(padded_octant(box, spec.n))
                assert w.tobytes() == np.exp(np.multiply(freq_sq(spec) ** m, -exponent)).tobytes()
                assert np.max(np.abs(w - ref)) <= 4 * np.finfo(float).eps * np.max(ref)
            assert _within_form_bound(resid, resid_ref, nx, ny), s


def _verifier_state(m, tau, level=1):
    """The extractor of `semigroup_verify` at its default box L = 24 for
    the fixture data of `level`, and the data's rescaled spectrum (X, b) at
    tau."""
    extract = _Extractor(level_basis(m, level), 24.0)
    (P,) = spectrum_cubes([fixture(m, level)[0]], m)
    s = math.exp(-tau)
    X = s ** ((2 * m - 1) / (2 * m) - 3 / (2 * m)) * dilate_coeffs(P, s ** (-1.0 / (2 * m)))
    return extract, X, (2.0 - s) / s


def _plain_sweep(extract, X, b, c, spec):
    """The residual of `_Extractor.closed_form` for the coefficients c by
    the sweep oracle over the lattice of the grid `spec`, and the norms of
    the data and of the model."""
    m = extract.m
    Y = np.tensordot(c, extract.realz, axes=(0, 0))
    data = closed_form_rows(X, grid.octant_weight(spec.L, m, b, spec.n), spec)
    model = closed_form_rows(Y, grid.octant_weight(spec.L, m, n=spec.n), spec)
    return [plain_residual_norm(spec, *sides) for sides in ((data, model), (data,), (model,))]


@pytest.mark.parametrize("m, level", [(1, 1), (1, 2), (2, 0), (2, 1)])
def test_residual_agrees_with_the_plain_sweep(m, level):
    # the README runs of criteria 7 and 8 against the sweep oracle. At
    # tau = 0 the data are in the span and the residual is roundoff (the
    # sweep reads up to 5.3e-18); from the verifier's first output time on,
    # tau = 0.1, r is at least 0.08 of the data's norm and the two agree
    # relatively; at small tau, near the span, the form keeps its absolute
    # bound on r^2 while the relative error of r grows
    for tau in (0.0, 1e-6, 1e-3, 0.1, 3.0):
        extract, X, b = _verifier_state(m, tau, level)
        c, resid = extract.closed_form(X, b)
        ref, nx, ny = _plain_sweep(extract, X, b, c, GridSpec(24.0, 128))
        assert _within_form_bound(resid, ref, nx, ny), tau
        if tau == 0.0:
            assert resid <= 1e-12 * nx
        elif tau >= 0.1:
            assert abs(resid - ref) <= 1e-12 * ref, tau


@pytest.mark.parametrize("m, level", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_residual_of_data_in_the_span_is_roundoff(m, level):
    # rational combinations of the basis at tau = 0: the form's square is
    # roundoff of either sign (down to -4.3e-19 in units of the largest
    # coefficient seen), a negative one reads 0.0, and either stays within
    # the bound
    spec = GridSpec(16.0, 48)
    basis = level_basis(m, level)
    extract = _Extractor(basis, spec.L)
    for seed in range(3):
        rng = random.Random(seed)
        data = _combo(basis, {lab: Fraction(rng.randint(1, 49), rng.randint(1, 49)) for lab in basis.labels})
        (X,) = spectrum_cubes([data], m)
        c, resid = extract.closed_form(X, 1.0)
        assert _within_form_bound(resid, *_plain_sweep(extract, X, 1.0, c, spec)), seed


@pytest.mark.parametrize("m", [1, 2], ids=["m=1", "m=2"])
def test_residual_scales_exactly_by_powers_of_two(m):
    # in plain units the residual of the field times 2^600 reads inf and
    # times 2^-600 or 2^-900 reads 0.0
    extract, X, b = _verifier_state(m, 1.0)
    c, resid = extract.closed_form(X, b)
    assert resid > 0.01
    for k in (600, -600, -900):
        ck, rk = extract.closed_form(np.ldexp(X, k), b)
        assert rk == math.ldexp(resid, k), k
        assert np.array_equal(ck, np.ldexp(c, k)), k


@pytest.mark.parametrize("m, L", [(1, 12.0), (2, 48.0), (2, 16.0), (1, 24.0), (1, 48.0)])
def test_semigroup_verify_working_set(m, L):
    # the refusal in `semigroup_verify` sizes the verifier at
    # _verifier_arrays float64 values; the measured peak, with the lattice
    # cache cleared, must stay within it, on small boxes, where the moment
    # and pairing tables weigh most (at L=16, m=2 also runs level 3, whose
    # pairing table, D = 9, is most of the peak), and on large ones, where
    # the m=2 live box grows like L^3; at L=16 and m=2, 7 output times keep
    # the 3 the rate fit needs
    for level in (1, 2, 3) if (m, L) == (2, 16.0) else (1, 2):
        data = fixture(m, level)[0]
        semigroup_verify(data, m, L=L, n_tau=7)
        grid._CACHE.clear()
        tracemalloc.start()
        try:
            traj = semigroup_verify(data, m, L=L, n_tau=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.C) >= 3
        assert peak <= dynamics._verifier_arrays(L, m, level) * 8, level


def _off_span(m):
    """A level-1 basis and data with a remainder outside its span: a span
    field plus a field of another level."""
    return level_basis(m, 1), fixture(m, 1)[0] + fixture(m, 0)[0]


@pytest.mark.parametrize("m", [1, 2])
def test_expand_refuses_a_field_outside_the_span(m):
    # the remainder is exact, so an off-span field cannot pass silently:
    # the message names its degrees, here those of the level-0 field
    basis, u = _off_span(m)
    with pytest.raises(ValidationError, match=r"outside the span .* degrees \(0, 0, 0\)"):
        expand(u, basis)
    assert expand(fixture(m, 1)[0], basis).coeffs == {(1, 0): 1, (1, 1): 0, (1, 2): 0}


def test_unique_continuation_diagnostic(cb3):
    taus = np.linspace(0.0, 4.0, 41)
    e0 = Expansion(cb3, {(1, 0): 1.0, (3, 10): 0.5})
    rep = detect_resonance(diagonal_trajectory(e0, taus), window=(0.0, 4.0))
    good = unique_continuation_diagnostic(rep, [0.4, 0.2, 0.1, 0.03])
    assert good["verdict"] == "PASS"
    bad = unique_continuation_diagnostic(rep, [0.4, 0.5, 0.6])
    assert bad["verdict"] == "INCONSISTENT"
    short = diagonal_trajectory(e0, np.linspace(0.0, 1.0, 11))
    rep2 = detect_resonance(short, window=(0.0, 1.0))
    assert unique_continuation_diagnostic(rep2, [0.4, 0.2])["verdict"] == "vacuous"
    assert unique_continuation_diagnostic(rep, [])["verdict"] == "vacuous"


def test_unique_continuation_diagnostic_applies_the_readme_rule(cb3):
    # criterion 9: every distance strictly below the one before, and the
    # final one strictly below 0.05; a rise on the way, or a final distance
    # at the bound, is INCONSISTENT
    taus = np.linspace(0.0, 4.0, 41)
    e0 = Expansion(cb3, {(1, 0): 1.0, (3, 10): 0.5})
    rep = detect_resonance(diagonal_trajectory(e0, taus), window=(0.0, 4.0))
    assert rep.status == "resonant"
    rises = unique_continuation_diagnostic(rep, [0.4, 0.5, 0.03])
    assert rises["verdict"] == "INCONSISTENT" and rises["decreasing"] is False
    at_bound = unique_continuation_diagnostic(rep, [0.4, 0.2, 0.05])
    assert at_bound["verdict"] == "INCONSISTENT" and at_bound["decreasing"] is True
    assert unique_continuation_diagnostic(rep, [0.4, 0.2, 0.049])["verdict"] == "PASS"
