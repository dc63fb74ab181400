from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermflow.errors import ValidationError
from hermflow.operators import OperatorParams, apply_B_star
from hermflow.polynomial import Polynomial, VectorPolyField
from hermflow.solenoidal import (
    CompositeBasis,
    SolenoidalBasis,
    composite_basis,
    divfree_kernel,
    fixture,
    fixture_basis,
    validate_basis_field,
)
from oracles import (
    block_slices,
    dual_closed_form_m1,
    realization_gram,
    weighted_dual,
    weighted_pairing,
)

FIXTURE_COUNTS = {1: [1, 3, 8], 2: [1, 3, 2, 2, 2]}


def test_fixture_counts():
    for m, counts in FIXTURE_COUNTS.items():
        for k, want in enumerate(counts):
            assert len(fixture(m, k)) == want


def test_fixture_m1_matches_kernel_dimension_at_levels_1_and_2():
    # at k = 1, 2 the catalog carries the full divergence kernel: k(k+2) fields
    for k in (1, 2):
        assert len(fixture(1, k)) == k * (k + 2)


def test_fixture_fields_are_divergence_free_eigenfields():
    for m, counts in FIXTURE_COUNTS.items():
        params = OperatorParams(m=m, N=3)
        lam_den = 2 * m
        for k in range(len(counts)):
            for v in fixture(m, k):
                assert v.divergence().is_zero()
                validate_basis_field(v, k, params)
                for p in v.components:
                    if p.is_zero():
                        continue
                    assert apply_B_star(p, params) == p.scale(Fraction(-k, lam_den))


def test_fixture_unknown_pair_raises():
    with pytest.raises(ValidationError):
        fixture(1, 3)
    with pytest.raises(ValidationError):
        fixture(4, 0)


def test_divfree_kernel_dimensions_m1():
    params = OperatorParams(m=1, N=3)
    for k in range(4):
        basis = divfree_kernel(k, params)
        assert basis.count == (k + 1) * (k + 3)
        for v in basis.fields:
            assert v.divergence().is_zero()
            validate_basis_field(v, k, params)


def test_divfree_kernel_m2_level3():
    # the kernel construction is not Gaussian-specific
    params = OperatorParams(m=2, N=3)
    basis = divfree_kernel(3, params)
    assert basis.count == (3 + 1) * (3 + 3)
    for v in basis.fields:
        assert v.divergence().is_zero()
        validate_basis_field(v, 3, params)


def test_realization_gram_symmetric_positive_diagonal():
    basis = fixture_basis(1, 2)
    G = basis.gram
    n = basis.count
    assert G == realization_gram(basis.fields, 2, basis.params)
    for i in range(n):
        assert G[i][i] > 0
        for j in range(n):
            assert G[i][j] == G[j][i]


def _random_combo(fields, coeffs):
    out = fields[0].scale(coeffs[0])
    for v, c in zip(fields[1:], coeffs[1:]):
        out = out + v.scale(c)
    return out


coeff_lists = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=8, max_size=8
)


@settings(max_examples=25, deadline=None)
@given(coeff_lists)
def test_dual_frame_recovers_coefficients_exactly_m1(coeffs):
    basis = fixture_basis(1, 2)
    q = _random_combo(basis.fields, coeffs)
    assert basis.coefficients_poly(q) == list(coeffs)


def test_dual_frame_recovers_coefficients_exactly_m2():
    basis = fixture_basis(2, 2)
    coeffs = [Fraction(3, 7), Fraction(-2)]
    q = _random_combo(basis.fields, coeffs)
    assert basis.coefficients_poly(q) == coeffs


def test_weighted_dual_inverts_weighted_gram_m1():
    basis = fixture_basis(1, 1)
    Ginv = weighted_dual(basis)
    n = basis.count
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            G[i][j] = sum(
                (
                    weighted_pairing(
                        basis.fields[i].components[c], basis.fields[j].components[c], 1
                    )
                    for c in range(3)
                ),
                Fraction(0),
            )
    for i in range(n):
        for j in range(n):
            s = sum((G[i][r] * Ginv[r][j] for r in range(n)), Fraction(0))
            assert s == (1 if i == j else 0)


def test_weighted_dual_extraction_agrees_with_derivative_frame_m1():
    basis = fixture_basis(1, 2)
    Ginv = weighted_dual(basis)
    coeffs = [Fraction(k - 3, 2) for k in range(basis.count)]
    q = _random_combo(basis.fields, coeffs)
    raw = [
        sum(
            (
                weighted_pairing(q.components[c], basis.fields[j].components[c], 1)
                for c in range(3)
            ),
            Fraction(0),
        )
        for j in range(basis.count)
    ]
    via_weighted = [
        sum((g * r for g, r in zip(row, raw)), Fraction(0)) for row in Ginv
    ]
    assert via_weighted == coeffs
    assert basis.coefficients_poly(q) == coeffs


def test_weighted_dual_singular_on_odd_levels_for_m2():
    # every contributing kernel moment vanishes at odd |beta| + |gamma| parity
    with pytest.raises(ValidationError):
        weighted_dual(fixture_basis(2, 1))
    with pytest.raises(ValidationError):
        weighted_dual(fixture_basis(2, 3))


def test_weighted_dual_available_on_even_levels_for_m2():
    Ginv = weighted_dual(fixture_basis(2, 2))
    assert len(Ginv) == 2


def test_dual_closed_form_m1_scaling_and_m2_rejection():
    basis = fixture_basis(1, 2)
    duals = dual_closed_form_m1(basis)
    assert duals == [v.scale(Fraction(1, 4)) for v in basis.fields]
    with pytest.raises(ValidationError):
        dual_closed_form_m1(fixture_basis(2, 2))


def test_dual_transform_polys_carry_expansion_coefficients():
    basis = fixture_basis(1, 1)
    polys = basis.dual_transform_polys()
    assert len(polys) == basis.count
    for acomp, comps in zip(basis.acoeffs, polys):
        for c in range(3):
            assert comps[c].terms == {b: a for b, a in acomp[c].items() if a != 0}


def test_composite_basis_counts_and_labels_m1():
    for K, want in [(1, 4), (2, 12), (3, 36)]:
        comp = composite_basis(1, K)
        assert comp.count == want
        assert comp.blocks[-1].level == K
        assert comp.labels == [
            (b.level, i) for b in comp.blocks for i in range(b.count)
        ]
    # `level_basis`: the catalog through level 2, the computed kernel beyond
    comp = composite_basis(1, 3)
    assert [b.fields for b in comp.blocks[:3]] == [fixture(1, k) for k in range(3)]
    assert comp.blocks[3].fields == divfree_kernel(3, OperatorParams(m=1, N=3)).fields


def test_composite_basis_m2_uses_catalog_through_level_4():
    comp = composite_basis(2, 4)
    assert comp.count == 1 + 3 + 2 + 2 + 2
    assert [b.fields for b in comp.blocks] == [fixture(2, k) for k in range(5)]


def test_composite_basis_block_slices_partition_fields():
    comp = composite_basis(1, 2)
    fields = comp.fields
    for basis, sl in block_slices(comp):
        assert fields[sl] == basis.fields
    assert composite_basis(1, 0).count == 1
    with pytest.raises(ValidationError):
        composite_basis(1, -1)


def test_basis_container_validation_and_json():
    basis = fixture_basis(1, 1)
    assert basis.labels == [(1, 0), (1, 1), (1, 2)]
    assert len(basis.gram) == len(basis.gram_inv) == 3
    # a field of another level is refused when the basis is built
    with pytest.raises(ValidationError, match="outside level 0"):
        SolenoidalBasis(level=0, params=basis.params, fields=basis.fields)
    # `solenoidal.json` writes each field as its components' exact JSON
    doc = [[c.to_json_dict() for c in v.components] for v in basis.fields]
    assert doc[0][1] == {"dim": 3, "terms": [{"beta": [0, 0, 1], "num": "-1", "den": "1"}]}


def test_basis_of_dependent_fields_raises():
    # construction runs the independence check; a repeated field is named
    v = fixture(1, 1)[0]
    params = OperatorParams(m=1, N=3)
    with pytest.raises(ValidationError, match=r"dependent basis fields at level 1: \[1\]"):
        SolenoidalBasis(level=1, params=params, fields=[v, v])
    with pytest.raises(ValidationError, match="outside level 2"):
        SolenoidalBasis(level=2, params=params, fields=[v])


def test_validate_basis_field_rejects_nonsolenoidal():
    params = OperatorParams(m=1, N=3)
    bad = VectorPolyField(
        [Polynomial.monomial((1, 0, 0)), Polynomial.zero(3), Polynomial.zero(3)]
    )
    with pytest.raises(ValidationError):
        validate_basis_field(bad, 1, params)
