from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hermflow import dynamics, grid, rational_linalg
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
    freq_sq,
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
    fd_weights,
    fraction_classify_zero,
    hausdorff,
    norm,
    pair_fields,
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
    assert e.residual == 0.0
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
    assert e0.residual == 0.0
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
    assert e1.tau == 2.0
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
    wrong = CoefficientTrajectory(
        taus,
        [Expansion(b2, {(0, 0): math.exp(-0.5 * t)}, tau=float(t)) for t in taus],
    )
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
    dev = np.max(np.abs(traj.coeff_matrix() - exact.coeff_matrix()))
    assert dev <= 1e-9


def test_nse_with_zero_tensor_uses_the_basis_order_rates():
    # over an m=2 basis the linear part decays at -(k+3)/4, like the exact flow
    b2 = composite_basis(2, 1)
    e0 = Expansion(b2, {(0, 0): 0.2, (1, 0): -0.1, (1, 2): 0.05})
    traj = nse_galerkin(e0, _zero_tensor(b2, GridSpec(8.0, 32)), 3.0, n_out=31)
    exact = diagonal_trajectory(e0, traj.taus)
    assert np.max(np.abs(traj.coeff_matrix() - exact.coeff_matrix())) <= 1e-9
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
    bad = CoefficientTrajectory(
        np.array([0.0, 1.0]),
        [
            Expansion(cb2, {(1, 0): 1.0}),
            Expansion(cb2, {(1, 0): 2.0}),
        ],
    )
    assert not bad.envelope_check()["ok"]


def test_trajectory_csv_layout(cb2):
    e0 = Expansion(cb2, {(1, 0): 1.0})
    traj = diagonal_trajectory(e0, np.linspace(0.0, 1.0, 3))
    lines = traj.to_csv().strip().split("\n")
    assert lines[0] == "tau," + ",".join(f"l{k}:{i}" for k, i in cb2.labels)
    assert len(lines) == 4
    row = lines[1].split(",")
    assert float(row[0]) == 0.0 and len(row) == cb2.count + 1


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


def test_classify_zero_monomial_cases():
    for M, K in [(1, 1), (2, 3), (4, 4)]:
        zt = classify_zero(
            lambda x, t, M=M, K=K: [x[0] ** M - (-t) ** K]
        )
        assert zt.status == "classified"
        assert (zt.M, zt.K, zt.gamma) == (M, K, Fraction(K, M))
    mixed = classify_zero(lambda x, t: [x[0] * x[1] ** 2 - (-t) ** 2])
    assert (mixed.M, mixed.K) == (3, 2)
    assert mixed.gamma == Fraction(2, 3)
    assert "(2/3)" in mixed.rescale


def test_stencils_are_the_vandermonde_weights():
    # the closed form gives the oracle's weights exactly, zeros dropped and
    # the kept nodes in the same order, on central and one-sided nodes
    for r in range(1, 9):
        for nodes in (tuple(range(-r, r + 1)), tuple(range(-2 * r, 1))):
            stencils = dynamics._stencils(nodes, 2 * r)
            assert len(stencils) == 2 * r + 1
            for q, (kept, nums, den) in enumerate(stencils):
                want = [(x, w) for x, w in zip(nodes, fd_weights(nodes, q)) if w]
                assert [(x, Fraction(n, den)) for x, n in zip(kept, nums)] == want


def test_classify_zero_solves_no_linear_system(monkeypatch):
    # the stencils come in closed form: no rref runs, and a second call
    # gives the same result
    def refuse(A):
        raise AssertionError("classify_zero called rref")

    monkeypatch.setattr(rational_linalg, "rref", refuse)

    def sampler(x, t):
        return [x[0] * x[1] - (-t) ** 3]

    first = classify_zero(sampler)
    assert (first.M, first.K) == (2, 3)
    assert classify_zero(sampler) == first


def _heat_swirl(x, t):
    # u = curl of a spreading Gaussian: vanishes identically on the t-axis
    a = 2.0 + t
    phi = (4.0 * math.pi * a) ** (-1.5) * math.exp(-(x[0] ** 2 + x[1] ** 2 + x[2] ** 2) / (4.0 * a))
    return [0.0, x[2] / a * phi, -x[1] / a * phi]


def test_classify_zero_temporal_degenerate_heat_swirl():
    zt = classify_zero(_heat_swirl)
    assert zt.status == "temporal-degenerate"
    assert zt.M == 1 and zt.K is None and zt.gamma is None


def _synthetic(M, K):
    from hermflow.cli import _terms_sampler

    return _terms_sampler([{"x": [M, 0, 0], "c": 1}, {"x": [0, 0, 0], "t": K, "c": -((-1) ** K)}])


_ORACLE_CASES = {
    **{f"synthetic-{M}-{K}": _synthetic(M, K) for M in range(1, 5) for K in range(1, 5)},
    "mixed-xy2": lambda x, t: [x[0] * x[1] ** 2 - (-t) ** 2],
    "mixed-xyz": lambda x, t: [x[0] * x[1] * x[2] + 0.3 * t, x[2] ** 2 - 0.1 * t**3],
    "mixed-x2y": lambda x, t: [0.1 * x[0] ** 2 * x[1] + 3.0 * (-t) ** 4],
    "heat-swirl": _heat_swirl,
    # samples from 1e300 down to 1e-300 and subnormals, in one field
    "wide-range": lambda x, t: [
        1e300 * x[0] ** 3 - 1e300 * t**2, 1e-300 * x[1] + 5e-324 * x[2], 1e-300 * t
    ],
    # every sample a multiple of the smallest subnormal: 5e-324 (X^2 - T^3)
    "subnormal": lambda x, t: [5e-324 * ((8 * x[0]) ** 2 - (-8 * t) ** 3)],
    # the linear part is below the threshold, the cubic one above it
    "below-scale": lambda x, t: [1e-12 * x[0] + 1e300 * x[1] ** 3 + 1e-200 * t],
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_classify_zero_matches_the_fraction_oracle(name):
    # the integer stencil sums take every decision the Fraction sums take
    sampler = _ORACLE_CASES[name]
    assert classify_zero(sampler) == fraction_classify_zero(sampler)


def test_classify_zero_decides_at_the_threshold_like_the_oracle():
    # u = 0.1 x + t: its first x-difference d is a rounded sum of rounded
    # samples; thresholds one ulp apart put d just above and just below
    # threshold * umax, and both routes must fall the same way
    def sampler(x, t):
        return [0.1 * x[0] + t]

    nodes = tuple(range(-6, 7))
    d = float(sum(w * Fraction(0.1 * (i * 0.125)) for i, w in zip(nodes, fd_weights(nodes, 1))))
    umax = 1.5  # |u(0, -12 * 0.125)|
    thr = d / umax
    while thr * umax >= d:
        thr = math.nextafter(thr, 0.0)
    above = classify_zero(sampler, threshold=thr)
    below = classify_zero(sampler, threshold=math.nextafter(thr, 1.0))
    assert (above.status, above.M, above.K) == ("classified", 1, 1)
    assert (below.status, below.M) == ("order-exceeds-bound", None)
    assert above == fraction_classify_zero(sampler, threshold=thr)
    assert below == fraction_classify_zero(sampler, threshold=math.nextafter(thr, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_classify_zero_refuses_a_non_finite_sample(bad):
    def sampler(x, t):
        return [x[0], bad if x[0] == 0.5 else 0.0]

    with pytest.raises(ValidationError, match=r"the sample at x=\(0\.5, 0\.0, 0\.0\), t=0\.0 is not finite"):
        classify_zero(sampler)


def test_classify_zero_difference_beyond_the_float_range():
    # samples of +-1e308 alternating along x are finite, but their second
    # difference is not: it rounds to infinity, so it counts as
    # nonvanishing (the Fraction route raised OverflowError in float())
    def sampler(x, t):
        return [0.0 if x[0] == 0.0 else 1e308 * (-1) ** round(x[0] / 0.125)]

    zt = classify_zero(sampler)
    assert (zt.status, zt.M, zt.K) == ("temporal-degenerate", 2, None)
    with pytest.raises(OverflowError):
        fraction_classify_zero(sampler)


def test_classify_zero_edge_statuses():
    deep = classify_zero(lambda x, t: [x[0] ** 7], max_order=6)
    assert deep.status == "order-exceeds-bound"
    assert deep.M is None
    zero = classify_zero(lambda x, t: [0.0, 0.0, 0.0])
    assert zero.status == "zero-field"
    with pytest.raises(ValidationError):
        classify_zero(lambda x, t: [1.0 + x[0]])
    with pytest.raises(ValidationError):
        classify_zero(lambda x, t: [x[0]], max_order=0)


def test_semigroup_verify_small_box():
    traj = semigroup_verify(fixture(1, 1)[0], 1, spec=GridSpec(16.0, 64), n_tau=9)
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
        semigroup_verify(zero, 1, spec=GridSpec(16.0, 64))


@pytest.mark.parametrize("m, L", [(1, 0.5), (2, 3.0)])
def test_semigroup_verify_refuses_box_too_small_for_any_time(m, L):
    # 2L - 8 < 0: no output time keeps the periodic images apart (m=2 used
    # to raise a complex power, m=1 to keep early times with a bogus fit)
    with pytest.raises(ValidationError, match="too small"):
        semigroup_verify(fixture(m, 1)[0], m, spec=GridSpec(L, 16))


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
    extract = _Extractor(basis, spec)

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
    traj = semigroup_verify(fixture(2, 1)[0], 2, spec=GridSpec(16.0, 48), n_tau=5)
    assert len(traj.states) == len(traj.taus) >= 2


def test_semigroup_verify_caches_nothing_per_time():
    spec = GridSpec(14.0, 32)
    sizes = []
    for n_tau in (5, 9):
        semigroup_verify(fixture(1, 1)[0], 1, spec=spec, n_tau=n_tau)
        sizes.append(len(grid._CACHE))
    assert sizes[0] == sizes[1]


def _lattice_parts(P, spec):
    """Real and imaginary parts of sum_d i^|d| P[d] eta^d on the whole
    frequency lattice (None for a part that vanishes)."""
    eta = [spec.freqs()] * 3
    return [None if A is None else evaluate_cube(A, eta) for A in grid.hermitian_parts(P)]


def _full_lattice_closed_form(extract, X, b):
    """`_Extractor.closed_form` on full lattice arrays: the weight on every
    lattice point, and the residual from whole-lattice evaluations of each
    real and imaginary part, weighted, subtracted and squared one array
    at a time. Returns (c, residual, w)."""
    spec = extract.spec
    w = np.multiply(freq_sq(spec) ** extract.m, -b)
    np.exp(w, out=w)
    Dx, Dw = X.shape[-1] - 1, extract.duals.shape[-1] - 1
    table = grid.lattice_moments(w * extract.decay, spec, Dx + Dw)
    raw = grid.moment_pairings(X[None], extract.duals, table, spec)[0]
    c = np.linalg.solve(extract.M.T, raw)
    Y = np.tensordot(c, extract.realz, axes=(0, 0))
    total = 0.0
    for comp in range(3):
        parts = zip(_lattice_parts(X[comp], spec), _lattice_parts(Y[comp], spec))
        for x, y in parts:
            if x is not None:
                x *= w
            if y is not None:
                y *= extract.decay
                if x is not None:
                    x -= y
            diff = y if x is None else x
            if diff is not None:
                total += float(np.sum(np.square(diff, out=diff)))
    return c, math.sqrt(total / (2.0 * spec.L) ** 3), w


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
    extract = _Extractor(basis, spec)
    for s in (1.0, 0.5, 0.2, 0.05):
        b, sigma = (2.0 - s) / s, s ** (-1.0 / (2 * m))
        for X in (P, P + np.pad(other, [(0, 0)] + [(0, P.shape[-1] - other.shape[-1])] * 3)):
            X = dilate_coeffs(X, sigma)
            c_ref, resid_ref, w_ref = _full_lattice_closed_form(extract, X, b)
            c, resid = extract.closed_form(X, b)
            assert c.tobytes() == c_ref.tobytes()
            # the weight is exact where computed and exactly 0.0 elsewhere
            assert extract._scratch()[0].tobytes() == w_ref.tobytes()
            assert abs(resid - resid_ref) <= 1e-13 * resid_ref + 1e-20


@pytest.mark.parametrize("m, n, workers", [(1, 64, 1), (2, 48, 2)])
def test_semigroup_verify_working_set(m, n, workers):
    # the refusal in `semigroup_verify` sizes the verifier at
    # _verifier_arrays float64 arrays of n^3; the measured peak, with the
    # lattice cache cleared so that its arrays count, must stay within it
    data, spec = fixture(m, 1)[0], GridSpec(16.0, n)
    semigroup_verify(data, m, spec=spec, n_tau=5, workers=workers)
    grid._CACHE.clear()
    tracemalloc.start()
    try:
        traj = semigroup_verify(data, m, spec=spec, n_tau=5, workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.states) >= 2
    assert peak <= dynamics._verifier_arrays(n, m, 1, workers) * 8 * n**3


def _off_span(m):
    """A level-1 basis and data with a remainder outside its span: a span
    field plus a field of another level."""
    return level_basis(m, 1), fixture(m, 1)[0] + fixture(m, 0)[0]


@pytest.mark.parametrize("m", [1, 2])
def test_expand_polynomial_residual_is_the_parseval_norm(monkeypatch, m):
    # the norm of the remainder's closed-form spectrum on the lattice is
    # its grid norm: the same number as synthesizing the remainder on the
    # grid, and no FFT runs for it
    spec = GridSpec(10.0, 48)
    basis, u = _off_span(m)
    e = expand(u, basis)  # the default grid
    ref = norm(synth_weighted(u - e.field_poly(), GridSpec(10.0, 64), m))
    assert abs(e.residual - ref) <= 1e-14 * ref and ref > 1e-2
    ref = norm(synth_weighted(u - e.field_poly(), spec, m))

    def refuse(*args, **kwargs):
        raise AssertionError("expand ran an FFT")

    monkeypatch.setattr(np.fft, "fftn", refuse)
    monkeypatch.setattr(np.fft, "ifftn", refuse)
    got = expand(u, basis, spec)
    assert got.coeffs == e.coeffs
    assert abs(got.residual - ref) <= 1e-14 * ref


def test_expand_polynomial_working_set_and_refusal(monkeypatch):
    spec = GridSpec(10.0, 32)
    basis, u = _off_span(1)
    expand(u, basis, spec)
    grid._CACHE.clear()
    tracemalloc.start()
    try:
        e = expand(u, basis, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.residual > 0.0
    assert peak <= dynamics._EXPAND_POLY_ARRAYS * 8 * spec.n**3

    # a host with 1 MiB of memory: refused before any lattice array exists
    monkeypatch.setattr(grid, "_physical_memory", lambda: 2**20)
    grid._CACHE.clear()
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="n=32"):
            expand(u, basis, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid._CACHE == {}
    assert peak < 8 * spec.n**3
    # a field in the span has no remainder and needs no grid
    assert expand(fixture(1, 1)[0], basis, spec).residual == 0.0


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
