from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hermflow import grid
from hermflow.errors import ValidationError
from hermflow.grid import GridSpec, convection_poly, parallel_map
from hermflow.kernel import kernel_values
from hermflow.moments import moment_of_poly
from hermflow.polynomial import Polynomial, VectorPolyField
from hermflow.solenoidal import fixture_basis
from oracles import (
    GridVectorField,
    axis_moments,
    convection,
    enumerate_up_to,
    eta_axes,
    freq_sq,
    gaussian_kernel,
    lattice_spectrum,
    lattice_weight,
    mirror_octant,
    norm,
    padded_octant,
    pair_fields,
    project,
    project_spectral,
    sample,
    spectral_divergence,
    synth_duals,
    synth_weighted,
    to_grid,
    to_spectral,
    weighted_transform,
)

SPEC = GridSpec(10.0, 48)


@pytest.fixture(scope="module")
def basis_l2():
    return fixture_basis(1, 2)


def test_grid_spec_validation_and_geometry():
    with pytest.raises(ValidationError):
        GridSpec(8.0, 33)
    with pytest.raises(ValidationError):
        GridSpec(8.0, 8)
    with pytest.raises(ValidationError):
        GridSpec(0.0, 32)
    with pytest.raises(ValidationError):
        GridSpec(float("inf"), 32)
    spec = GridSpec(8.0, 32)
    ax = spec.axes()
    assert spec.h == 0.5
    # cell-centered: first node at -L + h/2, symmetric about 0
    assert ax[0] == -8.0 + 0.25 and ax[-1] == 8.0 - 0.25
    assert np.allclose(np.diff(ax), spec.h)
    assert np.max(np.abs(ax + ax[::-1])) == 0.0
    assert spec.to_json_dict() == {"L": 8.0, "n": 32}


def test_frequencies_are_exact_integer_multiples_of_pi_over_L():
    # n = 98 is the smallest even n where fftfreq(n, d=1/n) scales the
    # integer wavenumbers by 1/(n * (1/n)) = 1.0000000000000002
    for n in (32, 98):
        spec = GridSpec(6.0, n)
        k = np.concatenate((np.arange(n // 2), np.arange(-(n // 2), 0)))
        assert spec.freqs().tobytes() == (math.pi * k / 6.0).tobytes()


def test_spectral_roundtrip_is_identity():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((SPEC.n,) * 3)
    back = to_grid(SPEC, to_spectral(SPEC, f)).real
    assert np.max(np.abs(back - f)) <= 1e-13


def _radius(spec):
    ax = spec.axes()
    return np.sqrt((ax**2)[:, None, None] + (ax**2)[None, :, None] + (ax**2)[None, None, :])


def test_sample_agrees_with_spectral_synthesis_m1(basis_l2):
    # physical-space product v F with the Gaussian kernel versus synthesis
    v = basis_l2.fields[3]
    a = sample(v, SPEC).data * gaussian_kernel(_radius(SPEC))
    b = synth_weighted(v, SPEC, 1)
    assert np.max(np.abs(a - b.data)) <= 1e-11


def test_sample_with_table_m2():
    from scipy.interpolate import CubicSpline

    tab = kernel_values(2, radii=np.arange(0.0, 36.0 + 1e-9, 0.02))
    w = fixture_basis(2, 2).fields[0]
    r = _radius(SPEC)
    assert tab.radii[-1] >= r.max()  # the table covers the grid diagonal
    a = sample(w, SPEC).data * CubicSpline(tab.radii, tab.values)(r)
    b = synth_weighted(w, SPEC, 2)
    # gap is periodization of the stretched-exponential tail, not roundoff
    assert np.max(np.abs(a - b.data)) <= 2e-3


def test_projector_idempotent_and_divergence_free(basis_l2):
    u = synth_weighted(basis_l2.fields[3], SPEC, 1)
    pu = project(u)
    ppu = project(pu)
    assert np.max(np.abs(ppu.data - pu.data)) / np.max(np.abs(pu.data)) <= 1e-13
    dv = spectral_divergence(pu)
    assert np.sqrt(SPEC.h**3 * np.sum(dv**2)) / norm(pu) <= 1e-13


def test_projector_annihilates_gradients():
    # grad(p F) = (grad p - p y / 2) F for the Gaussian kernel
    p = Polynomial.monomial((1, 1, 0))
    comps = []
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        yi = Polynomial.monomial(tuple(e))
        comps.append(p.derive(tuple(e)) - (yi * p).scale(Fraction(1, 2)))
    g = synth_weighted(VectorPolyField(comps), SPEC, 1)
    assert norm(project(g)) / norm(g) <= 1e-13


def test_projector_self_adjoint_on_lattice():
    rng = np.random.default_rng(1)
    a = GridVectorField(SPEC, rng.standard_normal((3,) + (SPEC.n,) * 3))
    b = GridVectorField(SPEC, rng.standard_normal((3,) + (SPEC.n,) * 3))
    lhs = pair_fields(project(a), b)
    rhs = pair_fields(a, project(b))
    assert abs(lhs - rhs) / (norm(a) * norm(b)) <= 1e-14


def test_pair_fields_matches_exact_moments(basis_l2):
    v = basis_l2.fields[3]
    got = pair_fields(synth_weighted(v, SPEC, 1), sample(v, SPEC))
    want = float(sum(moment_of_poly(vc * vc, 1) for vc in v.components))
    assert want == 8.0
    assert abs(got - want) / abs(want) <= 1e-8
    with pytest.raises(ValidationError):
        pair_fields(
            GridVectorField(SPEC, np.zeros((3,) + (SPEC.n,) * 3)),
            GridVectorField(GridSpec(10.0, 32), np.zeros((3, 32, 32, 32))),
        )


def test_convection_poly_rotation_closed_form():
    R = VectorPolyField(
        [
            Polynomial.zero(3),
            Polynomial.monomial((0, 0, 1), Fraction(-1)),
            Polynomial.monomial((0, 1, 0)),
        ]
    )
    c = convection_poly(R)
    assert c.components[0].is_zero()
    assert c.components[1].terms == {(0, 1, 0): Fraction(-1)}
    assert c.components[2].terms == {(0, 0, 1): Fraction(-1)}


def test_convection_pseudo_spectral_matches_closed_form(basis_l2):
    # (vF . grad)(vF) = F^2 [ (v.grad)v - (v.y) v / 2 ] for the Gaussian kernel
    v = basis_l2.fields[3]
    u = synth_weighted(v, SPEC, 1)
    got = convection(u)
    conv = convection_poly(v)
    ydot = Polynomial.zero(3)
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        ydot = ydot + Polynomial.monomial(tuple(e)) * v.components[i]
    q = VectorPolyField(
        [
            conv.components[i] - (ydot * v.components[i]).scale(Fraction(1, 2))
            for i in range(3)
        ]
    )
    want = sample(q, SPEC).data * gaussian_kernel(_radius(SPEC)) ** 2
    assert np.max(np.abs(got.data - want)) <= 1e-11


@pytest.mark.parametrize("spec", [GridSpec(8.0, 32), GridSpec(16.0, 128)])
def test_axis_tables_take_a_spectrum_to_its_grid_moments(spec):
    # the tensor's per-axis tables give h^3 sum_y y^d f(y) straight from
    # the lattice spectrum of f, without the inverse FFT
    dmax = 4
    rng = np.random.default_rng(1)
    f = rng.standard_normal((spec.n,) * 3)
    F = to_spectral(spec, f)
    E = grid._y_moments(spec, dmax)
    got = grid._contract_axes(F, E, E, E).real / spec.n**3
    want = spec.h**3 * axis_moments(to_grid(spec, F).real, spec.axes(), dmax)
    scale = spec.h**3 * axis_moments(np.abs(f), np.abs(spec.axes()), dmax)
    assert np.max(np.abs(got - want) / scale) <= 1e-15


@pytest.mark.parametrize("n", [16, 18, 48])
def test_octant_moments_match_the_full_lattice_sums(n):
    # an array even in each coordinate, held on its octant, against the
    # folded per-axis tables of the tensor, (E, E, E) and (etaE, E, E),
    # whose rows differ at k and -k; n = 18 has an odd Nyquist index. Only
    # the order of summation differs from the sums over every lattice point.
    spec = GridSpec(6.0, n)
    rng = np.random.default_rng(n)
    octant = rng.random((n // 2 + 1,) * 3) * padded_octant(grid.octant_weight(6.0, 1, 0.1, n), n)
    whole = mirror_octant(octant)
    eta, dmax = spec.freqs(), 4
    E = grid._y_moments(spec, dmax)
    etaE = grid._eta_diff(spec.L, n)[:, None] * E
    for tables in ((E, E, E), (etaE, E, E), (E, E, etaE)):
        got = grid._axis_moments(octant, eta, 3, tables)
        want = axis_moments(whole, eta, 3, tables)
        # a few ulp of the largest value (at most 2.6 seen here)
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.max(np.abs(want)), tables


@pytest.mark.parametrize("m, b", [(2, 1.0), (2, 39.0), (1, 1e3)])
def test_weight_moments_match_the_whole_lattice_sum(m, b):
    # the table is summed on the weight's live prefix only (14, 6 and 3
    # indices per axis here), which an n=48 grid holds short of its Nyquist
    # row: against the sum of the exponential over every point of its
    # lattice, only the order of summation and the underflowed zeros differ
    spec = GridSpec(8.0, 48)
    assert grid._live_eta(spec.L, m, b).size < spec.n // 2
    got = grid.weight_moments(spec.L, m, b, 6)
    want = axis_moments(np.exp(-b * freq_sq(spec) ** m), spec.freqs(), 6)
    # a few ulp of the largest value
    assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.max(np.abs(want))


@pytest.mark.parametrize("n", [18, 48])
@pytest.mark.parametrize("b", [1.0, 2.0, 39.0])
def test_m1_weight_moments_are_a_product_of_one_folded_axis_sum(n, b):
    # at m=1 the weight factors over the axes: the table is the outer
    # product of one 1-D sum, and it differs by roundoff only, entry by
    # entry against the sum of the absolute terms, from that product and
    # from the sum of the exponential over every point of an n-point
    # lattice whose octant holds the whole live prefix (the box is sized so
    # that the underflow edge falls halfway between the last index before
    # the Nyquist row and that row); b = 39 is the verifier's (2 - s)/s at
    # s = 0.05
    L = math.pi * (n // 2 - 0.5) / math.sqrt(grid._EXP_ZERO / b)
    spec = GridSpec(L, n)
    assert grid._live_eta(L, 1, b).size == n // 2
    got = grid.weight_moments(L, 1, b, 6)
    eta = spec.freqs()
    t = (eta[:, None] ** np.arange(7) * np.exp(-b * eta**2)[:, None]).sum(axis=0)
    product = t[:, None, None] * t[None, :, None] * t[None, None, :]
    w = np.exp(-b * freq_sq(spec))
    want = axis_moments(w, eta, 6)
    scale = axis_moments(w, np.abs(eta), 6)
    for ref in (want, product):
        assert np.max(np.abs(got - ref) / scale) <= 1e-14
    # the odd powers cancel exactly between k and -k: every entry with an
    # odd power is 0.0
    r = np.arange(7) % 2 == 1
    odd = r[:, None, None] | r[None, :, None] | r[None, None, :]
    assert not got[odd].any() and got[~odd].all()


def test_moment_pairings_read_the_leading_block_of_a_larger_table():
    # the shared tables of the verifier are built to the larger of the
    # degrees their pairings need: a pairing reads only the leading block
    # of degree D1 + D2, so it has the bytes of the table cut to that block
    rng = np.random.default_rng(3)
    X, Y = rng.standard_normal((2, 3, 3, 3, 3)), rng.standard_normal((3, 3, 4, 4, 4))
    table = grid.weight_moments(8.0, 2, 2.0, 9)
    exact = table[:6, :6, :6].copy()
    got = grid.moment_pairings(X, Y, table, 8.0)
    assert got.shape == (2, 3)
    assert got.tobytes() == grid.moment_pairings(X, Y, exact, 8.0).tobytes()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_transform_polynomials_have_the_parity_of_their_monomial(m):
    # every term xi^d of Q_gamma has |d| = |gamma| mod 2: the phase of
    # FT[y^gamma F] = i^|gamma| Q_gamma w folds into i^|d| up to a sign
    for gamma in enumerate_up_to(6, 3):
        q = grid._q_poly(m, gamma)
        assert not q.is_zero()
        assert all((sum(gamma) - sum(d)) % 2 == 0 for d in q.terms), gamma


def test_lattice_spectrum_matches_a_direct_complex_sum():
    # a cube without symmetry, so a transposed contraction fails
    spec = GridSpec(3.0, 16)
    P = np.random.default_rng(2).standard_normal((4, 4, 4))
    e = spec.freqs()
    want = np.zeros((spec.n,) * 3, dtype=complex)
    scale = np.zeros((spec.n,) * 3)
    for d in np.ndindex(P.shape):
        mono = e[:, None, None] ** d[0] * e[None, :, None] ** d[1] * e[None, None, :] ** d[2]
        want += 1j ** sum(d) * P[d] * mono
        scale += np.abs(P[d] * mono)
    ones = np.ones((spec.n,) * 3)
    got = lattice_spectrum(P, spec, ones)
    assert np.max(np.abs(got.real - want.real) / scale) <= 1e-15
    assert np.max(np.abs(got.imag - want.imag) / scale) <= 1e-15
    # a cube of even degrees only has no imaginary part
    even = P * (grid._degree_cube(3) % 2 == 0)
    got = lattice_spectrum(even, spec, ones)
    assert not got.imag.any() and np.max(np.abs(got.real - want.real) / scale) <= 1e-15
    # and the weight multiplies both parts
    w = lattice_weight(spec, 1)
    assert lattice_spectrum(P, spec, w).tobytes() == (lattice_spectrum(P, spec, ones) * w).tobytes()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("b", [1.0, 39.0, 1e3])
def test_lattice_weight_is_the_full_lattice_exponential(m, b):
    # b = 39 is the verifier's (2 - s)/s at s = 0.05, where most of the
    # lattice underflows, and at b = 1e3 almost all of it does: the octant's
    # live prefix box, mirrored, gives the same bits as the exponential of
    # the whole lattice, and 0.0 elsewhere; n = 98 is not a power of two
    for n in (16, 48, 98):
        spec = GridSpec(16.0, n)
        want = np.exp(-b * freq_sq(spec) ** m)
        assert lattice_weight(spec, m, b).tobytes() == want.tobytes(), n
        box = grid.octant_weight(spec.L, m, b, n)
        live = box.shape[0]
        assert box.shape == (live,) * 3 and 1 <= live <= n // 2 + 1
        # the box is no longer than where the weight is nonzero, the first
        # index past it underflows on every axis alone, and so do all the
        # indices past it
        assert box[live - 1].any()
        if live <= n // 2:
            for axis in range(3):
                first_dead = [0, 0, 0]
                first_dead[axis] = live
                assert want[tuple(first_dead)] == 0.0
        dead = np.abs(grid._kint(n)) >= live
        assert not want[dead].any() and not want[:, dead].any() and not want[:, :, dead].any()


@pytest.mark.parametrize("n", [16, 48])
@pytest.mark.parametrize("m", [1, 2])
def test_projector_norms_match_the_whole_lattice(n, m):
    # the row sweep copies its rows of the weight and of 1/|eta|^2 from
    # their octants by index: against the spectrum on the whole lattice in
    # FFT order, projected there, a row taken from the wrong octant index
    # moves the scale, and a wrong 1/|eta|^2 leaves a longitudinal part far
    # above roundoff
    from hermflow.cli import _random_poly_field

    spec = GridSpec(8.0, n)
    v = _random_poly_field(np.random.default_rng(10 * n + m))
    pu = project_spectral(weighted_transform(v, spec, m), spec)
    ppu = project_spectral([g.copy() for g in pu], spec)
    e1, e2, e3 = eta_axes(spec)
    div = e1 * pu[0] + e2 * pu[1] + e3 * pu[2]
    sq = [sum(np.sum(np.abs(g) ** 2) for g in gs) for gs in (pu, [b - a for a, b in zip(pu, ppu)], [div])]
    want = [math.sqrt(t / (2.0 * spec.L) ** 3) for t in sq]
    scale, idempotence, divergence = grid.projector_norms(v, spec, m)
    assert abs(scale - want[0]) <= 1e-14 * want[0]
    for got in (idempotence, divergence, want[1], want[2]):
        assert got <= 1e-14 * scale


def test_synth_duals_pair_to_gram_rows():
    basis = fixture_basis(1, 1)
    duals = synth_duals(basis, SPEC)
    for j, W in enumerate(duals):
        for i in range(basis.count):
            got = pair_fields(sample(basis.fields[i], SPEC), W)
            assert abs(got - float(basis.gram[j][i])) <= 1e-8


def test_grid_field_shape_validation():
    with pytest.raises(ValidationError):
        GridVectorField(SPEC, np.zeros((3, 4, 4, 4)))


def test_parallel_map_keeps_input_order():
    items = list(range(7))
    for workers in (None, 1, 3):
        assert parallel_map(lambda x: x * x, items, workers) == [x * x for x in items]
    assert parallel_map(lambda x: x, [], 3) == []


def test_grid_spec_refuses_boxes_out_of_floating_point_range():
    # L and the Nyquist frequency pi n / (2L) must both stay at most 2^64
    assert GridSpec(2.0**64, 16).L == 2.0**64
    assert GridSpec(math.pi * 16 / 2.0**65, 16).n == 16
    for L, n in ((2.0**64 * 1.01, 16), (1e300, 16), (1e-300, 64), (math.pi * 16 / 2.0**65 * 0.99, 16)):
        with pytest.raises(ValidationError, match=re.escape(f"L={L!r} on an n={n} grid")):
            GridSpec(L, n)
