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
    convection,
    enumerate_up_to,
    gaussian_kernel,
    norm,
    pair_fields,
    project,
    sample,
    spectral_divergence,
    synth_duals,
    synth_weighted,
    to_grid,
    to_spectral,
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
    want = spec.h**3 * grid._axis_moments(to_grid(spec, F).real, spec.axes(), dmax)
    scale = spec.h**3 * grid._axis_moments(np.abs(f), np.abs(spec.axes()), dmax)
    assert np.max(np.abs(got - want) / scale) <= 1e-15


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
    got = grid._lattice_spectrum(P, spec, ones)
    assert np.max(np.abs(got.real - want.real) / scale) <= 1e-15
    assert np.max(np.abs(got.imag - want.imag) / scale) <= 1e-15
    # a cube of even degrees only has no imaginary part
    even = P * (grid._degree_cube(3) % 2 == 0)
    got = grid._lattice_spectrum(even, spec, ones)
    assert not got.imag.any() and np.max(np.abs(got.real - want.real) / scale) <= 1e-15
    # and the weight multiplies both parts
    w, _ = grid.lattice_weight(spec, 1)
    assert grid._lattice_spectrum(P, spec, w).tobytes() == (grid._lattice_spectrum(P, spec, ones) * w).tobytes()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("b", [1.0, 39.0])
def test_lattice_weight_is_the_full_lattice_exponential(m, b):
    # b = 39 is the verifier's (2 - s)/s at s = 0.05, where most of the
    # lattice underflows: the boxes of live indices give the same bits as
    # the exponential of the whole lattice, and 0.0 elsewhere
    spec = GridSpec(16.0, 48)
    want = np.exp(-b * grid.freq_sq(spec) ** m)
    w, live = grid.lattice_weight(spec, m, b)
    assert w.tobytes() == want.tobytes()
    assert live.all() == (b == 1.0) and live.any()
    assert not want[~live].any() and not want[:, ~live].any() and not want[:, :, ~live].any()
    # into a given array, whatever it held before
    out = np.full_like(want, np.nan)
    assert grid.lattice_weight(spec, m, b, out)[0] is out
    assert out.tobytes() == want.tobytes()


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
