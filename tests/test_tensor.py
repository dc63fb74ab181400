from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from hermflow import grid
from hermflow.errors import ValidationError
from hermflow.grid import GridSpec, convection_poly, interaction_tensor
from hermflow.solenoidal import composite_basis, level_basis
from oracles import block_slices, pair_fields, project, sample, synth_duals, synth_weighted, weighted_dual

EPS = np.zeros((3, 3, 3))
for (i, j, k), s in {
    (0, 1, 2): 1,
    (1, 2, 0): 1,
    (2, 0, 1): 1,
    (0, 2, 1): -1,
    (2, 1, 0): -1,
    (1, 0, 2): -1,
}.items():
    EPS[i, j, k] = s


@pytest.fixture(scope="module")
def tensor_k1():
    cb = composite_basis(1, 1)
    return interaction_tensor(cb, GridSpec(8.0, 64), refine=False)


def _closed_form():
    # constant block couples to nothing; the rotation block closes on
    # itself with structure constants eps/2
    want = np.zeros((4, 4, 4))
    want[1:, 1:, 1:] = 0.5 * EPS
    return want


def test_k1_tensor_matches_epsilon_closed_form(tensor_k1):
    assert tensor_k1.labels == [(0, 0), (1, 0), (1, 1), (1, 2)]
    assert np.max(np.abs(tensor_k1.values - _closed_form())) <= 1e-5
    assert tensor_k1.values[1, 2, 3] == pytest.approx(0.5, abs=1e-5)
    assert tensor_k1.values[2, 1, 3] == pytest.approx(-0.5, abs=1e-5)


def test_rotation_self_interaction_vanishes(tensor_k1):
    self_max = max(
        float(np.max(np.abs(tensor_k1.values[a, a, :]))) for a in (1, 2, 3)
    )
    assert self_max <= 1e-8


def test_unrefined_tensor_reports_no_error(tensor_k1):
    assert tensor_k1.refined == {}
    assert tensor_k1.max_error() == 0.0
    assert tensor_k1.flagged() == []


def test_refinement_doubles_box_and_flags_nothing_at_k1():
    cb = composite_basis(1, 1)
    T = interaction_tensor(cb, GridSpec(6.0, 24), refine=True)
    assert T.refined == {"L": 12.0, "n": 48}
    assert T.flagged(1e-3) == []
    # the doubled box removes the periodization bias almost completely
    assert np.max(np.abs(T.values - _closed_form())) <= 1e-12
    assert T.max_error() <= 2e-3


@pytest.mark.parametrize(
    "K, spec, refine",
    [
        (1, GridSpec(6.0, 24), True),
        (2, GridSpec(8.0, 32), False),
        # no K: the single m=2 block of level 3, which reaches the pressure part
        pytest.param(None, GridSpec(8.0, 32), False, id="m2-level3"),
    ],
)
def test_interaction_tensor_runs_no_fft(monkeypatch, K, spec, refine):
    def refuse(*args, **kwargs):
        raise AssertionError("the interaction tensor ran an FFT")

    monkeypatch.setattr(np.fft, "fftn", refuse)
    monkeypatch.setattr(np.fft, "ifftn", refuse)
    b = level_basis(2, 3) if K is None else composite_basis(1, K)
    T = interaction_tensor(b, spec, refine=refine)
    assert T.values.shape == (b.count,) * 3 and np.all(np.isfinite(T.values))


@pytest.mark.parametrize(
    "make, m, k",
    [(composite_basis, 1, 2), (level_basis, 2, 1), (level_basis, 2, 3)],
    ids=["composite-m1-K2", "level-m2-k1", "level-m2-k3"],
)
def test_interaction_tensor_peak_memory(make, m, k):
    # one lattice table per weight and grid: the working set is a few n^3
    # arrays, not one per dual or dual component
    b = make(m, k)
    spec = GridSpec(16.0, 128)
    grid._CACHE.clear()
    tracemalloc.start()
    try:
        interaction_tensor(b, spec, refine=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * spec.n**3


def test_k2_tensor_matches_weighted_gram_reference():
    # m=1: the derivative duals of the basis blocks and the block inverse
    # of the kernel-weighted Gram are the same coefficient functionals;
    # the reference pairs sampled convections against projected v*_j F on
    # the grid directly
    cb = composite_basis(1, 2)
    spec = GridSpec(8.0, 32)
    T = interaction_tensor(cb, spec, refine=False)
    n = cb.count
    ginv = np.zeros((n, n))
    for b, sl in block_slices(cb):
        ginv[sl, sl] = np.array(weighted_dual(b), dtype=float)
    duals = [project(synth_weighted(v, spec, 1)) for v in cb.fields]
    raw = np.array(
        [
            [
                [pair_fields(sample(convection_poly(va, vg), spec), w) for w in duals]
                for vg in cb.fields
            ]
            for va in cb.fields
        ]
    )
    want = -np.einsum("agj,bj->agb", raw, ginv)
    scale = float(np.max(np.abs(want)))
    assert scale > 1.0
    assert np.max(np.abs(T.values - want)) <= 1e-14 * scale


@pytest.mark.parametrize(
    "k, bound",
    [
        (1, 1e-14),
        # level 3 is the first whose pressure part reaches the couplings;
        # its y-moments reach 2e13 against couplings of about 3, so both
        # grid routes carry about 1e-14 relative roundoff here
        (3, 5e-14),
    ],
)
def test_m2_single_block_tensor_matches_grid_quadrature(k, bound):
    # the one m != 1 case the tensor takes: a single dual block, whose
    # weight exp(-|eta|^4) is not separable; the reference projects the
    # synthesized duals on the grid and pairs them with sampled convections
    b = level_basis(2, k)
    spec = GridSpec(8.0, 32)
    T = interaction_tensor(b, spec, refine=False)
    duals = [project(w) for w in synth_duals(b, spec)]
    raw = np.array(
        [
            [[pair_fields(sample(convection_poly(va, vg), spec), w) for w in duals] for vg in b.fields]
            for va in b.fields
        ]
    )
    want = -np.einsum("agj,bj->agb", raw, np.array(b.gram_inv, dtype=float))
    scale = float(np.max(np.abs(want)))
    assert scale > 0.1
    assert np.max(np.abs(T.values - want)) <= bound * scale


def test_multi_level_tensor_needs_m1():
    cb = composite_basis(2, 1)
    with pytest.raises(ValidationError, match="m=1 only"):
        interaction_tensor(cb, GridSpec(6.0, 24), refine=False)
    # a single m=2 block is fine: the constant field convects to nothing
    c0 = composite_basis(2, 0)
    T = interaction_tensor(c0, GridSpec(6.0, 24), refine=False)
    assert T.labels == [(0, 0)] and np.all(T.values == 0.0)


def test_json_artifact_roundtrip(tmp_path, tensor_k1):
    from hermflow.cli import _load_tensor

    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(tensor_k1.to_json_dict()))
    back = _load_tensor(str(path))
    assert back.labels == tensor_k1.labels
    assert np.array_equal(back.values, tensor_k1.values)
    assert back.spec == tensor_k1.spec
    with pytest.raises(ValidationError):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        _load_tensor(str(bad))
